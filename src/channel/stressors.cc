#include "channel/stressors.hh"

#include <cmath>
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

const char *
PositionalRamp::check() const
{
    if (!std::isfinite(startFrac) || !std::isfinite(endMultiplier))
        return "ramp startFrac and endMultiplier must be finite";
    if (startFrac < 0.0 || startFrac > 1.0)
        return "ramp startFrac must be in [0, 1]";
    if (endMultiplier < 0.0)
        return "ramp endMultiplier must be >= 0";
    return nullptr;
}

const char *
PcrProfile::check() const
{
    if (!std::isfinite(efficiency) || !std::isfinite(errorRate))
        return "pcr efficiency and errorRate must be finite";
    if (efficiency < 0.0 || efficiency > 1.0)
        return "pcr efficiency must be in [0, 1]";
    if (errorRate < 0.0 || errorRate > 1.0)
        return "pcr errorRate must be in [0, 1]";
    if (cycles > 64)
        return "pcr cycles must be at most 64";
    if (maxLineage == 0)
        return "pcr maxLineage must be >= 1";
    return nullptr;
}

const char *
DropoutProfile::check() const
{
    if (!std::isfinite(rate))
        return "dropout rate must be finite";
    if (rate < 0.0 || rate > 1.0)
        return "dropout rate must be in [0, 1]";
    if (burstLen == 0)
        return "dropout burstLen must be >= 1";
    return nullptr;
}

const char *
AgingProfile::check() const
{
    if (!std::isfinite(strandLossRate) || !std::isfinite(substitutionRate))
        return "aging rates must be finite";
    if (strandLossRate < 0.0 || strandLossRate > 1.0)
        return "aging strand-loss rate must be in [0, 1]";
    if (substitutionRate < 0.0 || substitutionRate > 1.0)
        return "aging substitution rate must be in [0, 1]";
    return nullptr;
}

const char *
ChannelProfile::check() const
{
    for (const char *err : { base.check(), ramp.check(), pcr.check(),
                             dropout.check(), aging.check() }) {
        if (err != nullptr)
            return err;
    }
    return nullptr;
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

RampTable::RampTable(const ChannelProfile &profile, size_t len)
    : length_(len), flat_(DrawThresholds::scaled(profile.base, 1.0))
{
    if (!profile.ramp.enabled())
        return;
    // multiplierAt is exactly 1.0 before the ramp starts and monotone
    // in i (each of its steps rounds monotonically), so only the tail
    // up to the first 1.0 differs from flat_.
    table_.assign(len, flat_);
    for (size_t i = len; i-- > 0;) {
        const double mult = profile.ramp.multiplierAt(i, len);
        if (mult == 1.0)
            break;
        table_[i] = DrawThresholds::scaled(profile.base, mult);
    }
}

void
RampTable::transmit(StrandView input, Rng &rng, StrandArena &out) const
{
    if (table_.empty())
        transmitWalk(input, rng, flat_, out, nullptr);
    else
        transmitWalk(input, rng, table_.data(), out, nullptr);
}

ProfileChannel::ProfileChannel(const ChannelProfile &profile)
    : profile_(profile)
{
    if (const char *err = profile.check())
        throw std::invalid_argument(std::string("ProfileChannel: ") + err);
}

void
ProfileChannel::transmitAppend(StrandView input, Rng &rng,
                               StrandArena &out) const
{
    RampTable(profile_, input.size()).transmit(input, rng, out);
}

void
ProfileChannel::generateCluster(StrandView reference, size_t n, Rng &rng,
                                StrandArena &out) const
{
    generateCluster(reference, n, rng, out,
                    RampTable(profile_, reference.size()));
}

void
ProfileChannel::generateCluster(StrandView reference, size_t n, Rng &rng,
                                StrandArena &out,
                                const RampTable &thresholds) const
{
    if (thresholds.length() != reference.size())
        return generateCluster(reference, n, rng, out);
    out.reserve(out.totalBases() + n * (reference.size() + 8),
                out.strandCount() + n);
    // PCR substitutes in place, so every template keeps the
    // reference's length and shares its thresholds.
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
