#include "api/options.hh"

#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>

namespace dnastore {
namespace api {

std::string
formatMessage(const char *fmt, ...)
{
    char buf[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    return buf;
}

// ------------------------------------------------------------ StoreOptions

StoreOptions
StoreOptions::tiny()
{
    StoreOptions opt;
    opt.cfg_ = StorageConfig::tinyTest();
    return opt;
}

StoreOptions
StoreOptions::bench()
{
    StoreOptions opt;
    opt.cfg_ = StorageConfig::benchScale();
    return opt;
}

StoreOptions
StoreOptions::paper()
{
    StoreOptions opt;
    opt.cfg_ = StorageConfig::paperScale();
    return opt;
}

StoreOptions &
StoreOptions::autoGeometry(bool on)
{
    autoGeometry_ = on;
    return *this;
}

StoreOptions &
StoreOptions::config(const StorageConfig &cfg)
{
    // Execution knobs (threads, packed pools) ride on the adopted
    // config, as they do in StorageConfig itself.
    cfg_ = cfg;
    return *this;
}

StoreOptions &
StoreOptions::symbolBits(unsigned bits)
{
    cfg_.symbolBits = bits;
    return *this;
}

StoreOptions &
StoreOptions::rows(size_t rows)
{
    cfg_.rows = rows;
    return *this;
}

StoreOptions &
StoreOptions::paritySymbols(size_t parity)
{
    cfg_.paritySymbols = parity;
    return *this;
}

StoreOptions &
StoreOptions::primerLen(size_t bases)
{
    cfg_.primerLen = bases;
    return *this;
}

StoreOptions &
StoreOptions::primerKey(uint64_t key)
{
    cfg_.primerKey = key;
    return *this;
}

StoreOptions &
StoreOptions::layout(LayoutScheme scheme)
{
    scheme_ = scheme;
    return *this;
}

StoreOptions &
StoreOptions::threads(size_t n)
{
    cfg_.numThreads = n;
    return *this;
}

StoreOptions &
StoreOptions::packedReadPools(bool on)
{
    cfg_.packedReadPools = on;
    return *this;
}

StoreOptions &
StoreOptions::unitSeed(uint64_t seed)
{
    unitSeed_ = seed;
    return *this;
}

Status
StoreOptions::validate() const
{
    // Geometry constraints live in StorageConfig::check() so the
    // throwing validate() and this builder can never drift apart.
    if (const char *err = cfg_.check())
        return Status::invalidArgument(err);
    return Status();
}

// ---------------------------------------------------------- ChannelOptions

ChannelOptions &
ChannelOptions::errorRate(double p)
{
    errorRate_ = p;
    errorRateSet_ = true;
    return *this;
}

ChannelOptions &
ChannelOptions::rates(double ins, double del, double sub)
{
    rates_ = ErrorModel::custom(ins, del, sub);
    ratesSet_ = true;
    return *this;
}

ChannelOptions &
ChannelOptions::profile(const ChannelProfile &profile)
{
    profile_ = profile;
    profileSet_ = true;
    return *this;
}

ChannelOptions &
ChannelOptions::aging(const AgingProfile &aging)
{
    aging_ = aging;
    agingSet_ = true;
    return *this;
}

ChannelOptions &
ChannelOptions::coverage(size_t readsPerCluster)
{
    // Last call wins: fixed coverage reverts any earlier
    // gammaCoverage() so a reused builder never mixes the two.
    coverage_ = readsPerCluster;
    gammaMean_ = 0.0;
    gammaShape_ = 0.0;
    return *this;
}

ChannelOptions &
ChannelOptions::gammaCoverage(double mean, double shape)
{
    gammaMean_ = mean;
    gammaShape_ = shape;
    return *this;
}

ChannelOptions &
ChannelOptions::coverage(const CoverageModel &model)
{
    // Round-trips exactly: fixed(n) stores mean_ = n, and
    // coverageModel() rebuilds fixed(coverage_) / gamma(mean, shape)
    // from the same values.
    if (model.isFixed())
        return coverage(size_t(model.mean()));
    return gammaCoverage(model.mean(), model.shape());
}

ChannelOptions &
ChannelOptions::cluster(const ClusterOptions &options)
{
    cluster_ = options;
    clusterSet_ = true;
    return *this;
}

ChannelOptions &
ChannelOptions::drawSeed(uint64_t seed)
{
    drawSeed_ = seed;
    return *this;
}

Status
ChannelOptions::validate() const
{
    // Channel shape: exactly one of error-rate, per-type rates, or a
    // full profile.
    if (errorRateSet_ && ratesSet_)
        return Status::invalidArgument(
            "error-rate cannot be combined with "
            "ins-rate/del-rate/sub-rate (give the per-type rates only)");
    if (profileSet_ && (errorRateSet_ || ratesSet_))
        return Status::invalidArgument(
            "a channel profile cannot be combined with "
            "error-rate/ins-rate/del-rate/sub-rate (set the profile's "
            "base model instead)");
    // The scalar error-rate is this builder's own knob; everything it
    // resolves to is checked by the channel's rule below.
    if (!ratesSet_ && !profileSet_) {
        if (!std::isfinite(errorRate_))
            return Status::invalidArgument("error-rate must be finite");
        if (errorRate_ < 0.0 || errorRate_ > 1.0)
            return Status::invalidArgument("error-rate must be in [0, 1]");
    }
    if (const char *err = channelProfile().check())
        return Status::invalidArgument(err);

    if (const char *err = CoverageModel::checkFixed(coverage_))
        return Status::invalidArgument(err);
    // gamma + cluster is NOT rejected here: per-trial read generation
    // (TrialJob/runTrial) supports the combination; only the
    // pool-backed retrieval path cannot, and Store rejects it there.
    if (gammaMean_ != 0.0 || gammaShape_ != 0.0) {
        if (const char *err = CoverageModel::checkGamma(gammaMean_,
                                                        gammaShape_))
            return Status::invalidArgument(err);
    }
    if (clusterSet_)
        return cluster_.validate();
    return Status();
}

ChannelProfile
ChannelOptions::channelProfile() const
{
    ChannelProfile resolved;
    if (profileSet_) {
        resolved = profile_;
    } else {
        resolved.base =
            ratesSet_ ? rates_ : ErrorModel::uniform(errorRate_);
    }
    if (agingSet_)
        resolved.aging = aging_;
    return resolved;
}

CoverageModel
ChannelOptions::coverageModel() const
{
    if (hasGamma())
        return CoverageModel::gamma(gammaMean_, gammaShape_);
    return CoverageModel::fixed(coverage_);
}

const ClusterParams &
ChannelOptions::clusterParams() const
{
    return cluster_.params();
}

size_t
ChannelOptions::maxCoverage() const
{
    if (!hasGamma())
        return coverage_;
    // Gamma draws are capped by the pool size; 3x the mean (+ slack)
    // keeps the cap out of the distribution's realistic range.
    size_t gamma_cap = size_t(gammaMean_ * 3.0) + 8;
    return coverage_ > gamma_cap ? coverage_ : gamma_cap;
}

// ---------------------------------------------------------- ClusterOptions

ClusterOptions
ClusterOptions::fromParams(const ClusterParams &params)
{
    ClusterOptions opt;
    opt.params_ = params;
    return opt;
}

ClusterOptions &
ClusterOptions::qgram(size_t q)
{
    params_.qgram = q;
    return *this;
}

ClusterOptions &
ClusterOptions::maxDistanceFrac(double frac)
{
    params_.maxDistanceFrac = frac;
    return *this;
}

ClusterOptions &
ClusterOptions::threads(size_t n)
{
    params_.numThreads = n;
    return *this;
}

ClusterOptions &
ClusterOptions::memoryBudgetMb(size_t mb)
{
    // mb << 20 wraps for mb >= 2^44 (2^44 itself becomes 0, "never
    // spill"); validate() reports it instead.
    budgetOverflow_ = mb > (SIZE_MAX >> 20);
    params_.memoryBudgetBytes = mb << 20;
    return *this;
}

ClusterOptions &
ClusterOptions::spillDir(const std::string &dir)
{
    params_.spillDir = dir;
    return *this;
}

Status
ClusterOptions::validate() const
{
    // One rule with the engine: StreamingClusterer's constructor runs
    // the same check.
    if (const char *err = params_.check())
        return Status::invalidArgument(err);
    if (budgetOverflow_)
        return Status::invalidArgument(formatMessage(
            "cluster-memory-mb must be at most %zu", SIZE_MAX >> 20));
    return Status();
}

} // namespace api
} // namespace dnastore
