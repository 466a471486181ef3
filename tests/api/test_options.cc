/**
 * Builder validation: every rejected parameter must surface the
 * documented StatusCode (InvalidArgument) with a message naming the
 * parameter — the same message the CLI prints, since the CLI
 * delegates its flag checks here.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "api/options.hh"

using namespace dnastore;
using namespace dnastore::api;

namespace {

void
expectInvalid(const Status &status, const char *needle)
{
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::InvalidArgument);
    EXPECT_NE(status.message().find(needle), std::string::npos)
        << "message was: " << status.message();
}

} // namespace

// ------------------------------------------------------------ StoreOptions

TEST(StoreOptions, PresetsAreValid)
{
    EXPECT_TRUE(StoreOptions().validate().ok());
    EXPECT_TRUE(StoreOptions::tiny().validate().ok());
    EXPECT_TRUE(StoreOptions::bench().validate().ok());
    EXPECT_TRUE(StoreOptions::paper().validate().ok());
}

TEST(StoreOptions, RejectsSymbolBits)
{
    expectInvalid(StoreOptions().symbolBits(1).validate(),
                  "symbolBits");
    expectInvalid(StoreOptions().symbolBits(17).validate(),
                  "symbolBits");
}

TEST(StoreOptions, RejectsRows)
{
    expectInvalid(StoreOptions().rows(0).validate(), "rows");
}

TEST(StoreOptions, RejectsParity)
{
    expectInvalid(StoreOptions().paritySymbols(0).validate(),
                  "paritySymbols");
    // tinyTest is GF(2^8): codeword length 255, so parity 255 leaves
    // no data columns.
    expectInvalid(StoreOptions::tiny().paritySymbols(255).validate(),
                  "paritySymbols");
}

TEST(StoreOptions, RejectsPrimerLen)
{
    expectInvalid(StoreOptions().primerLen(0).validate(),
                  "primerLen");
}

TEST(StoreOptions, MatchesThrowingValidatorWording)
{
    // The builder and StorageConfig::validate() must never drift:
    // both come from StorageConfig::check().
    StorageConfig cfg = StorageConfig::tinyTest();
    cfg.rows = 0;
    Status status = StoreOptions().config(cfg).validate();
    EXPECT_EQ(status.message(), cfg.check());
}

// ---------------------------------------------------------- ChannelOptions

TEST(ChannelOptions, DefaultIsValid)
{
    EXPECT_TRUE(ChannelOptions().validate().ok());
}

TEST(ChannelOptions, RejectsErrorRateOutOfRange)
{
    expectInvalid(ChannelOptions().errorRate(-0.1).validate(),
                  "error-rate must be in [0, 1]");
    expectInvalid(ChannelOptions().errorRate(2.0).validate(),
                  "error-rate must be in [0, 1]");
}

TEST(ChannelOptions, RejectsErrorRateCombinedWithRates)
{
    Status status = ChannelOptions()
                        .errorRate(0.05)
                        .rates(0.01, 0.01, 0.01)
                        .validate();
    expectInvalid(status, "error-rate cannot be combined");
}

TEST(ChannelOptions, RejectsNegativePerTypeRates)
{
    expectInvalid(
        ChannelOptions().rates(-0.01, 0.0, 0.0).validate(),
        "ins-rate must be >= 0");
    expectInvalid(
        ChannelOptions().rates(0.0, -0.01, 0.0).validate(),
        "del-rate must be >= 0");
    expectInvalid(
        ChannelOptions().rates(0.0, 0.0, -0.01).validate(),
        "sub-rate must be >= 0");
}

TEST(ChannelOptions, RejectsRateTotalAboveOne)
{
    expectInvalid(ChannelOptions().rates(0.5, 0.6, 0.0).validate(),
                  "total at most 1");
}

TEST(ChannelOptions, RejectsZeroCoverage)
{
    expectInvalid(ChannelOptions().coverage(0).validate(),
                  "coverage must be >= 1");
}

TEST(ChannelOptions, RejectsBadGamma)
{
    expectInvalid(ChannelOptions().gammaCoverage(5.0, 0.0).validate(),
                  "gamma-shape must be > 0");
    expectInvalid(
        ChannelOptions().gammaCoverage(-5.0, 3.0).validate(),
        "gamma-mean must be > 0");
}

TEST(ChannelOptions, AcceptsGammaCombinedWithCluster)
{
    // Per-trial read generation (TrialJob) supports gamma coverage
    // through the real clusterer, so the builder accepts the
    // combination; only the pool-backed retrieval path rejects it
    // (tested in test_store.cc).
    Status status = ChannelOptions()
                        .gammaCoverage(8.0, 4.0)
                        .cluster(ClusterOptions())
                        .validate();
    EXPECT_TRUE(status.ok()) << status.toString();
}

TEST(ChannelOptions, RejectsBadProfile)
{
    ChannelProfile profile;
    profile.base = ErrorModel::uniform(0.03);
    profile.dropout.rate = 2.0; // probability > 1
    expectInvalid(ChannelOptions().profile(profile).validate(),
                  "dropout");
}

TEST(ChannelOptions, RejectsProfileCombinedWithRates)
{
    ChannelProfile profile;
    expectInvalid(ChannelOptions()
                      .profile(profile)
                      .errorRate(0.01)
                      .validate(),
                  "profile cannot be combined");
}

TEST(ChannelOptions, ResolvedModelMatchesSetters)
{
    ChannelOptions uniform;
    uniform.errorRate(0.06);
    EXPECT_DOUBLE_EQ(uniform.channelProfile().base.total(), 0.06);

    ChannelOptions custom;
    custom.rates(0.01, 0.02, 0.03);
    EXPECT_DOUBLE_EQ(custom.channelProfile().base.insertion, 0.01);
    EXPECT_DOUBLE_EQ(custom.channelProfile().base.deletion, 0.02);
    EXPECT_DOUBLE_EQ(custom.channelProfile().base.substitution, 0.03);
}

TEST(ChannelOptions, MaxCoverageCapsGammaDraws)
{
    ChannelOptions fixed;
    fixed.coverage(12);
    EXPECT_EQ(fixed.maxCoverage(), 12u);

    ChannelOptions gamma;
    gamma.coverage(4).gammaCoverage(10.0, 4.0);
    // 3x the mean + slack, never below the fixed coverage.
    EXPECT_EQ(gamma.maxCoverage(), size_t(10.0 * 3.0) + 8);
}

// ---------------------------------------------------------- ClusterOptions

TEST(ClusterOptions, DefaultIsValid)
{
    EXPECT_TRUE(ClusterOptions().validate().ok());
}

TEST(ClusterOptions, RejectsQgramBounds)
{
    expectInvalid(ClusterOptions().qgram(0).validate(),
                  "cluster-qgram must be in [1, 31]");
    expectInvalid(ClusterOptions().qgram(32).validate(),
                  "cluster-qgram must be in [1, 31]");
    EXPECT_TRUE(ClusterOptions().qgram(31).validate().ok());
}

TEST(ClusterOptions, RejectsMaxDistanceFrac)
{
    expectInvalid(ClusterOptions().maxDistanceFrac(0.0).validate(),
                  "cluster-maxdist");
    expectInvalid(ClusterOptions().maxDistanceFrac(1.5).validate(),
                  "cluster-maxdist");
}

TEST(ClusterOptions, ParamsRoundTrip)
{
    ClusterParams params;
    params.qgram = 8;
    params.maxDistanceFrac = 0.2;
    params.numThreads = 4;
    params.numShards = 2;
    params.memoryBudgetBytes = 123456;
    params.spillDir = "/var/tmp/spill";
    ClusterOptions opt = ClusterOptions::fromParams(params);
    EXPECT_TRUE(opt.validate().ok());
    EXPECT_EQ(opt.params().qgram, 8u);
    EXPECT_DOUBLE_EQ(opt.params().maxDistanceFrac, 0.2);
    EXPECT_EQ(opt.params().numThreads, 4u);
    EXPECT_EQ(opt.params().numShards, 2u);
    EXPECT_EQ(opt.params().memoryBudgetBytes, 123456u);
    EXPECT_EQ(opt.params().spillDir, "/var/tmp/spill");
}

TEST(ClusterOptions, StreamingKnobs)
{
    ClusterOptions opt;
    opt.memoryBudgetMb(512).spillDir("/tmp/x");
    EXPECT_TRUE(opt.validate().ok());
    EXPECT_EQ(opt.params().memoryBudgetBytes, size_t(512) << 20);
    EXPECT_EQ(opt.params().spillDir, "/tmp/x");
    // 0 MiB means no budget: the engine never spills.
    opt.memoryBudgetMb(0);
    EXPECT_EQ(opt.params().memoryBudgetBytes, 0u);
    // A budget whose byte count overflows size_t is rejected, not
    // wrapped (2^44 MiB would read as 0, "never spill", and
    // 2^44 + 1 MiB as 1 MiB); through ChannelOptions too, which is
    // how the CLI's --cluster path validates.
    const size_t largest = SIZE_MAX >> 20;
    EXPECT_TRUE(opt.memoryBudgetMb(largest).validate().ok());
    for (size_t mb : { largest + 1, largest + 2, SIZE_MAX }) {
        expectInvalid(opt.memoryBudgetMb(mb).validate(),
                      "cluster-memory-mb");
        expectInvalid(ChannelOptions().cluster(opt).validate(),
                      "cluster-memory-mb");
    }
    EXPECT_TRUE(opt.memoryBudgetMb(512).validate().ok());
}

// ------------------------------------------------ non-finite regressions
// NaN passes every ordered comparison (NaN < 0 and NaN > 1 are both
// false), so each double-valued knob needs an explicit finiteness
// gate — a NaN error rate used to sail through validate() and poison
// the channel model downstream.

TEST(ChannelOptions, RejectsNonFiniteErrorRate)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    expectInvalid(ChannelOptions().errorRate(nan).validate(),
                  "error-rate must be finite");
    expectInvalid(ChannelOptions().errorRate(inf).validate(),
                  "error-rate must be finite");
    expectInvalid(ChannelOptions().errorRate(-inf).validate(),
                  "error-rate must be finite");
}

TEST(ChannelOptions, RejectsNonFinitePerTypeRates)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    expectInvalid(ChannelOptions().rates(nan, 0.0, 0.0).validate(),
                  "ins-rate must be finite");
    expectInvalid(ChannelOptions().rates(0.0, nan, 0.0).validate(),
                  "del-rate must be finite");
    expectInvalid(ChannelOptions().rates(0.0, 0.0, nan).validate(),
                  "sub-rate must be finite");
    expectInvalid(ChannelOptions().rates(inf, 0.0, 0.0).validate(),
                  "ins-rate must be finite");
}

TEST(ChannelOptions, RejectsNonFiniteGamma)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    expectInvalid(ChannelOptions().gammaCoverage(nan, 2.0).validate(),
                  "gamma-mean must be finite");
    expectInvalid(ChannelOptions().gammaCoverage(8.0, nan).validate(),
                  "gamma-shape must be finite");
    expectInvalid(ChannelOptions().gammaCoverage(inf, 2.0).validate(),
                  "gamma-mean must be finite");
}

TEST(ChannelOptions, RejectsNonFiniteAgingRates)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    AgingProfile aging;
    aging.strandLossRate = nan;
    aging.substitutionRate = 0.01;
    expectInvalid(ChannelOptions().aging(aging).validate(),
                  "aging rates must be finite");
    aging.strandLossRate = 0.1;
    aging.substitutionRate = nan;
    expectInvalid(ChannelOptions().aging(aging).validate(),
                  "aging rates must be finite");
}

TEST(ClusterOptions, RejectsNonFiniteMaxDistance)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    expectInvalid(ClusterOptions().maxDistanceFrac(nan).validate(),
                  "cluster-maxdist must be finite");
    expectInvalid(ClusterOptions().maxDistanceFrac(inf).validate(),
                  "cluster-maxdist must be finite");
}
