/**
 * @file
 * Hostile-channel stressors beyond the paper's i.i.d. IDS model.
 *
 * The paper's simulation (section 3) treats synthesis, storage, PCR,
 * and sequencing as one memoryless channel and side-steps coverage
 * pathologies. Real DNA storage endures more structured failure modes,
 * three of which this module models so the Scenario Lab can sweep
 * them:
 *
 *  - PositionalRamp: nanopore-style end-of-read degradation — error
 *    rates rise along the strand, so the tail bases (and the backward
 *    primer/index) are much noisier than the head.
 *  - PcrProfile: PCR amplification bias — reads are sequenced from a
 *    pool of *duplicated* template lineages rather than independently
 *    from the reference, so polymerase errors early in amplification
 *    are shared by many reads and can outvote the truth in consensus.
 *  - DropoutProfile: whole-strand dropout — clusters receive zero
 *    reads, singly or in bursts of consecutive molecules (synthesis
 *    batch failures, gel extraction losses), which the decoder must
 *    absorb as column erasures.
 *
 * A ChannelProfile composes a base ErrorModel with any subset of the
 * stressors; ProfileChannel turns a profile into cluster read
 * generation. With every stressor disabled, ProfileChannel draws the
 * exact RNG sequence of IdsChannel, so profiles degrade gracefully to
 * the paper's channel bit-for-bit.
 */

#ifndef DNASTORE_CHANNEL_STRESSORS_HH
#define DNASTORE_CHANNEL_STRESSORS_HH

#include <cstddef>
#include <vector>

#include "channel/error_model.hh"
#include "channel/walk.hh"
#include "dna/packed_strand.hh"
#include "dna/strand.hh"
#include "util/rng.hh"

namespace dnastore {

/**
 * Position-dependent error multiplier: 1.0 up to startFrac of the
 * strand, then rising linearly to endMultiplier at the final base.
 */
struct PositionalRamp
{
    /** Fraction of the strand where degradation begins; 1.0 = never. */
    double startFrac = 1.0;

    /** Error-rate multiplier at the last base (1.0 = flat). */
    double endMultiplier = 1.0;

    /** True when the ramp changes any rate. */
    bool
    enabled() const
    {
        return startFrac < 1.0 && endMultiplier != 1.0;
    }

    /** Multiplier for position @p i of a length-@p len strand. */
    double multiplierAt(size_t i, size_t len) const;

    /** Both finite, startFrac in [0, 1], endMultiplier >= 0. */
    const char *check() const;
};

/**
 * PCR amplification with error inheritance. Before sequencing, the
 * reference is amplified for @p cycles rounds: each template molecule
 * duplicates with probability @p efficiency per round, and every
 * duplication suffers i.i.d. substitutions at @p errorRate per base.
 * Reads then sample a template uniformly from the amplified pool, so
 * early-cycle errors appear in whole sub-lineages of reads.
 */
struct PcrProfile
{
    size_t cycles = 0;       //!< Amplification rounds; 0 disables PCR.
    double efficiency = 0.5; //!< Per-round duplication probability.
    double errorRate = 0.0;  //!< Polymerase substitutions per base copy.

    /**
     * Cap on materialized lineage templates (the pool grows
     * geometrically in cycles; templates beyond the cap would be
     * sampled so rarely they are folded into their ancestors).
     */
    size_t maxLineage = 64;

    bool enabled() const { return cycles > 0; }

    /**
     * efficiency/errorRate finite and in [0, 1], cycles at most 64
     * (2^64 templates is far past any maxLineage), maxLineage >= 1.
     */
    const char *check() const;
};

/** Whole-strand dropout: clusters that yield zero reads. */
struct DropoutProfile
{
    /** Probability that an erasure burst starts at a given cluster. */
    double rate = 0.0;

    /** Consecutive clusters erased once a burst starts. */
    size_t burstLen = 1;

    bool enabled() const { return rate > 0.0; }

    /** rate finite and in [0, 1], burstLen >= 1. */
    const char *check() const;
};

/**
 * Storage aging: per-epoch decay of an already-synthesized pool.
 * Unlike the sequencing-time stressors above, aging acts on reads
 * that exist — each epoch every read is lost outright with
 * probability strandLossRate (strand scission, depurination past
 * recovery) and every surviving base substitutes with probability
 * substitutionRate (deamination-style damage). Applied by
 * agePoolEpoch (channel/aging.hh) with the per-cluster serial-seed
 * discipline of ReadPool generation, so an aged pool is bit-identical
 * for every thread count.
 */
struct AgingProfile
{
    /** Per-epoch probability a read is lost entirely. */
    double strandLossRate = 0.0;

    /** Per-epoch per-base substitution probability on survivors. */
    double substitutionRate = 0.0;

    bool
    enabled() const
    {
        return strandLossRate > 0.0 || substitutionRate > 0.0;
    }

    /** Both rates finite and in [0, 1]. */
    const char *check() const;
};

/** A channel profile: base IDS model composed with stressors. */
struct ChannelProfile
{
    ErrorModel base;
    PositionalRamp ramp;
    PcrProfile pcr;
    DropoutProfile dropout;
    AgingProfile aging;

    /**
     * The channel rule, run by ProfileChannel and api::ChannelOptions:
     * base.check(), then the ramp, PCR, dropout and aging checks. The
     * first broken constraint, or nullptr (ramped rates are clamped,
     * see below).
     */
    const char *check() const;
};

/**
 * Zero out counts[c] for dropped-out clusters. Draws one uniform per
 * cluster from @p rng (burst continuations excluded), so the result
 * is deterministic for a given stream regardless of prior contents.
 */
void applyDropout(const DropoutProfile &dropout, Rng &rng,
                  std::vector<size_t> &counts);

/**
 * A profile's per-position draw thresholds for inputs of one length,
 * tabulated once and shared by every read of that length. A flat
 * ramp keeps one constant entry and allocates nothing.
 */
class RampTable
{
  public:
    RampTable(const ChannelProfile &profile, size_t len);

    /** The input length the table was built for. */
    size_t length() const { return length_; }

    /** Append one read of @p input, which must be length() long. */
    void transmit(StrandView input, Rng &rng, StrandArena &out) const;

  private:
    size_t length_;
    DrawThresholds flat_;
    std::vector<DrawThresholds> table_;
};

/**
 * Read generation under a ChannelProfile.
 *
 * Per-position error rates are the base model's scaled by the ramp
 * multiplier; when the scaled total would exceed 1 the three rates
 * are clamped proportionally (an error of *some* kind is certain, but
 * probabilities stay probabilities).
 */
class ProfileChannel
{
  public:
    /** @throws std::invalid_argument("ProfileChannel: " + check()). */
    explicit ProfileChannel(const ChannelProfile &profile);

    /**
     * Generate @p n noisy reads of @p reference appended to @p out,
     * amplifying through the PCR lineage pool first when enabled.
     * Dropout is *not* applied here — it acts on read counts before
     * generation (applyDropout), since a dropped cluster has no reads
     * to generate.
     */
    void generateCluster(StrandView reference, size_t n, Rng &rng,
                         StrandArena &out) const;

    /**
     * The same reads, drawn through @p thresholds, which a caller
     * generating many clusters of one length builds once; a table of
     * another length is ignored.
     */
    void generateCluster(StrandView reference, size_t n, Rng &rng,
                         StrandArena &out,
                         const RampTable &thresholds) const;

    /** Transmit one strand through the ramped per-position channel. */
    void transmitAppend(StrandView input, Rng &rng,
                        StrandArena &out) const;

    const ChannelProfile &profile() const { return profile_; }

  private:
    ChannelProfile profile_;
};

} // namespace dnastore

#endif // DNASTORE_CHANNEL_STRESSORS_HH
