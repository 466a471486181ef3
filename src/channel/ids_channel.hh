/**
 * @file
 * Insertion/deletion/substitution channel simulator.
 *
 * Models the cumulative distortion of DNA synthesis, storage, PCR, and
 * sequencing as a single memoryless IDS channel, exactly as the paper's
 * simulation methodology does (sections 3 and 6.1.2).
 */

#ifndef DNASTORE_CHANNEL_IDS_CHANNEL_HH
#define DNASTORE_CHANNEL_IDS_CHANNEL_HH

#include <cstddef>
#include <vector>

#include "channel/error_model.hh"
#include "dna/packed_strand.hh"
#include "dna/strand.hh"
#include "util/rng.hh"

namespace dnastore {

/** Counts of injected error events for one transmission. */
struct ChannelEvents
{
    size_t insertions = 0;
    size_t deletions = 0;
    size_t substitutions = 0;

    /** Total error events. */
    size_t total() const { return insertions + deletions + substitutions; }
};

/**
 * Memoryless IDS channel over the DNA alphabet.
 *
 * Per input position, at most one of {insert, delete, substitute}
 * happens, drawn according to the ErrorModel; inserted bases are
 * uniform over the alphabet and substituted bases are uniform over the
 * three other bases, per the paper's channel definition.
 */
class IdsChannel
{
  public:
    /** @throws std::invalid_argument("IdsChannel: " + check()). */
    explicit IdsChannel(const ErrorModel &model);

    /**
     * Transmit one strand through the channel.
     *
     * @param input  Original strand.
     * @param rng    Randomness source.
     * @param events Optional out-param counting injected errors.
     */
    Strand transmit(const Strand &input, Rng &rng,
                    ChannelEvents *events = nullptr) const;

    /**
     * Transmit into a caller-provided strand: @p out is cleared and
     * refilled, reusing its capacity, so a warm buffer makes repeated
     * transmissions allocation-free. Draws the same RNG sequence as
     * transmit(), so outputs are bit-identical.
     *
     * @p input must not alias @p out (or, for transmitAppend, the
     * destination arena): the output buffer may reallocate while the
     * input is still being read.
     */
    void transmitInto(StrandView input, Rng &rng, Strand &out,
                      ChannelEvents *events = nullptr) const;

    /**
     * Transmit as a new strand appended to @p out — the arena-backed
     * path used by read pools, where a whole cluster's reads land in
     * one contiguous buffer.
     */
    void transmitAppend(StrandView input, Rng &rng, StrandArena &out,
                        ChannelEvents *events = nullptr) const;

    /** Generate @p n independent noisy copies (a perfect cluster). */
    std::vector<Strand> transmitCluster(const Strand &input, size_t n,
                                        Rng &rng) const;

    /** Generate a cluster of @p n noisy copies into an arena. */
    void transmitClusterInto(StrandView input, size_t n, Rng &rng,
                             StrandArena &out) const;

  private:
    ErrorModel model_;
};

} // namespace dnastore

#endif // DNASTORE_CHANNEL_IDS_CHANNEL_HH
