#include "channel/stressors.hh"

#include <stdexcept>
#include <string>

#include "channel/walk.hh"

namespace dnastore {

double
PositionalRamp::multiplierAt(size_t i, size_t len) const
{
    if (!enabled() || len < 2)
        return 1.0;
    double frac = double(i) / double(len - 1);
    if (frac <= startFrac)
        return 1.0;
    double progress = (frac - startFrac) / (1.0 - startFrac);
    return 1.0 + progress * (endMultiplier - 1.0);
}

bool
PositionalRamp::valid() const
{
    return startFrac >= 0.0 && startFrac <= 1.0 && endMultiplier >= 0.0;
}

bool
PcrProfile::valid() const
{
    return efficiency >= 0.0 && efficiency <= 1.0 && errorRate >= 0.0 &&
        errorRate <= 1.0 && maxLineage >= 1;
}

bool
DropoutProfile::valid() const
{
    return rate >= 0.0 && rate <= 1.0 && burstLen >= 1;
}

bool
AgingProfile::valid() const
{
    return strandLossRate >= 0.0 && strandLossRate <= 1.0 &&
        substitutionRate >= 0.0 && substitutionRate <= 1.0;
}

bool
ChannelProfile::valid() const
{
    return base.valid() && ramp.valid() && pcr.valid() &&
        dropout.valid() && aging.valid();
}

void
ChannelProfile::validateOrThrow(const char *who) const
{
    std::string prefix = std::string(who) + ": ";
    if (!base.valid())
        throw std::invalid_argument(
            prefix + "invalid base error model "
                     "(negative rate or total() > 1)");
    if (!ramp.valid())
        throw std::invalid_argument(
            prefix + "invalid positional ramp "
                     "(startFrac outside [0,1] or negative multiplier)");
    if (!pcr.valid())
        throw std::invalid_argument(
            prefix + "invalid PCR profile (efficiency/errorRate outside "
                     "[0,1] or maxLineage == 0)");
    if (!dropout.valid())
        throw std::invalid_argument(
            prefix + "invalid dropout profile (rate outside [0,1] or "
                     "burstLen == 0)");
    if (!aging.valid())
        throw std::invalid_argument(
            prefix + "invalid aging profile (strand-loss or "
                     "substitution rate outside [0,1])");
}

void
applyDropout(const DropoutProfile &dropout, Rng &rng,
             std::vector<size_t> &counts)
{
    if (!dropout.enabled())
        return;
    size_t burst_left = 0;
    for (auto &count : counts) {
        if (burst_left > 0) {
            // Burst continuation: no draw, the burst already decided.
            --burst_left;
            count = 0;
        } else if (rng.nextDouble() < dropout.rate) {
            burst_left = dropout.burstLen - 1;
            count = 0;
        }
    }
}

namespace {

/**
 * A profile's per-position thresholds for inputs of one length,
 * tabulated once and shared by every read of that length. A flat
 * ramp keeps one constant entry.
 */
class RampThresholds
{
  public:
    RampThresholds(const ChannelProfile &profile, size_t len)
        : flat_(DrawThresholds::scaled(profile.base, 1.0))
    {
        if (!profile.ramp.enabled())
            return;
        // multiplierAt is exactly 1.0 before the ramp starts and
        // monotone in i (each of its steps rounds monotonically), so
        // only the tail up to the first 1.0 differs from flat_.
        table_.assign(len, flat_);
        for (size_t i = len; i-- > 0;) {
            const double mult = profile.ramp.multiplierAt(i, len);
            if (mult == 1.0)
                break;
            table_[i] = DrawThresholds::scaled(profile.base, mult);
        }
    }

    /** Append one read of @p input (of the tabulated length). */
    void
    transmit(StrandView input, Rng &rng, StrandArena &out) const
    {
        if (table_.empty())
            transmitWalk(input, rng, flat_, out, nullptr);
        else
            transmitWalk(input, rng, table_.data(), out, nullptr);
    }

  private:
    DrawThresholds flat_;
    std::vector<DrawThresholds> table_;
};

} // namespace

ProfileChannel::ProfileChannel(const ChannelProfile &profile)
    : profile_(profile)
{
    profile.validateOrThrow("ProfileChannel");
}

void
ProfileChannel::transmitAppend(StrandView input, Rng &rng,
                               StrandArena &out) const
{
    RampThresholds(profile_, input.size()).transmit(input, rng, out);
}

void
ProfileChannel::generateCluster(StrandView reference, size_t n, Rng &rng,
                                StrandArena &out) const
{
    out.reserve(out.totalBases() + n * (reference.size() + 8),
                out.strandCount() + n);
    // PCR substitutes in place, so every template keeps the
    // reference's length and shares its thresholds.
    const RampThresholds thresholds(profile_, reference.size());
    if (!profile_.pcr.enabled()) {
        for (size_t i = 0; i < n; ++i)
            thresholds.transmit(reference, rng, out);
        return;
    }

    // Amplify: each round duplicates existing templates (capped), and
    // each duplication inherits its template's mutations plus fresh
    // polymerase substitutions.
    const PcrProfile &pcr = profile_.pcr;
    const uint64_t error_threshold = drawThreshold(pcr.errorRate);
    std::vector<Strand> pool;
    pool.reserve(pcr.maxLineage);
    pool.push_back(reference.toStrand());
    for (size_t cycle = 0; cycle < pcr.cycles; ++cycle) {
        size_t round_size = pool.size();
        for (size_t t = 0; t < round_size; ++t) {
            if (pool.size() >= pcr.maxLineage)
                break;
            if (rng.nextDouble() >= pcr.efficiency)
                continue;
            Strand copy = pool[t];
            substituteWalk(copy.data(), copy.size(), rng,
                           error_threshold);
            pool.push_back(std::move(copy));
        }
    }

    // Sequence: each read picks a template uniformly — duplicated
    // lineages are sampled proportionally to their amplified share.
    for (size_t i = 0; i < n; ++i) {
        const Strand &tmpl = pool[rng.nextBelow(pool.size())];
        thresholds.transmit(tmpl, rng, out);
    }
}

} // namespace dnastore
