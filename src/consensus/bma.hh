/**
 * @file
 * One-way Bitwise/Base-wise Majority Alignment (BMA) consensus.
 *
 * Implements the left-to-right lookahead-majority reconstruction the
 * paper walks through in Figure 2: at each output position the reads
 * vote on the consensus base; disagreeing reads are classified as
 * having suffered an insertion, deletion, or substitution by looking
 * ahead, and their cursors are re-synchronized accordingly. Errors in
 * this classification propagate towards the end of the strand, which
 * is the root cause of the reliability skew (section 3.1).
 *
 * The core is bit-parallel across reads (after Myers' bit-vector edit
 * distance, JACM 1999). A gather turns every active read's next 8
 * bases into per-base masks, one bit per (read, position); the
 * unanimity run, the column and lookahead votes, and every read's
 * error-type classification are then byte-lane arithmetic on a few
 * 64-bit words. A unanimous run that fills the 8-base window
 * continues with 8-byte word compares straight from the reads. After
 * a step the masks shift, lane by lane, rather than being gathered
 * again, and read cursors catch up only at the next gather. Clusters
 * of up to 16 reads use a compile-time mask width; larger ones size
 * the same core at runtime, up to 65,534 reads. The gather is the one
 * step that follows the SIMD tier: SSE2 byte compares on the vector
 * tiers, multiplies on Scalar. Every tier, width and lens gives
 * bit-identical output.
 */

#ifndef DNASTORE_CONSENSUS_BMA_HH
#define DNASTORE_CONSENSUS_BMA_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dna/packed_strand.hh"
#include "dna/strand.hh"

namespace dnastore {

/**
 * Reusable per-call working state for the BMA reconstructions. One
 * scratch per thread; buffers grow once and are then reused so the
 * per-cluster loop performs no heap allocation.
 */
struct BmaScratch
{
    /** Per active read, in read order: the lens position's byte. */
    std::vector<const uint8_t *> head;

    /** Per active read: bases left from the lens position on. */
    std::vector<ptrdiff_t> remaining;

    /** The core's mask words: a few rows of one word per 8 reads. */
    std::vector<uint64_t> masks;
};

/**
 * Reconstruct a strand of known length from noisy reads, scanning
 * left to right.
 *
 * @param reads      Noisy copies of the original strand.
 * @param target_len Known length L of the original strand.
 * @return The consensus estimate, exactly @p target_len bases long.
 */
Strand reconstructOneWay(const std::vector<Strand> &reads,
                         size_t target_len);

/**
 * View-based variant for the hot path: reconstruct from @p n_reads
 * strand views into @p out (cleared and refilled), reusing @p scratch.
 * Bit-identical to the vector overload.
 */
void reconstructOneWayInto(const StrandView *reads, size_t n_reads,
                           size_t target_len, BmaScratch &scratch,
                           Strand &out);

/**
 * Reconstruct as if every read were reversed, without materializing
 * the reversed reads: the output estimates the reversed original.
 * Bit-identical to reversing each read and calling reconstructOneWay.
 */
void reconstructOneWayReversed(const StrandView *reads, size_t n_reads,
                               size_t target_len, BmaScratch &scratch,
                               Strand &out);

} // namespace dnastore

#endif // DNASTORE_CONSENSUS_BMA_HH
