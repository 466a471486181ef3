/**
 * @file
 * Two-sided (2-way) consensus reconstruction.
 *
 * Exploits the symmetry of the consensus problem (section 3.1): run the
 * one-way reconstruction left-to-right and right-to-left, then keep the
 * first half of the forward estimate and the second half of the
 * backward estimate. Error probability then peaks in the middle of the
 * strand instead of growing towards the end (Figure 4). This is the
 * algorithm used by the state-of-the-art storage pipeline the paper
 * builds on, and by this library's own pipeline.
 */

#ifndef DNASTORE_CONSENSUS_TWO_SIDED_HH
#define DNASTORE_CONSENSUS_TWO_SIDED_HH

#include <cstddef>
#include <vector>

#include "consensus/bma.hh"
#include "dna/packed_strand.hh"
#include "dna/strand.hh"

namespace dnastore {

/**
 * Reusable working state for reconstructTwoSided: the BMA scratch
 * plus the forward/backward estimates. One per thread.
 */
struct TwoSidedScratch
{
    BmaScratch bma;
    Strand forward;
    Strand backward;
};

/**
 * Reconstruct a strand of known length from noisy reads using the
 * two-sided procedure.
 *
 * @param reads      Noisy copies of the original strand.
 * @param target_len Known length L of the original strand.
 * @return The consensus estimate, exactly @p target_len bases long.
 */
Strand reconstructTwoSided(const std::vector<Strand> &reads,
                           size_t target_len);

/**
 * View-based variant for the hot path: reconstruct from @p n_reads
 * strand views into @p out (cleared and refilled), reusing
 * @p scratch. The backward pass reads the views through a reversing
 * lens instead of materializing reversed copies. Bit-identical to the
 * vector overload.
 */
void reconstructTwoSidedInto(const StrandView *reads, size_t n_reads,
                             size_t target_len, TwoSidedScratch &scratch,
                             Strand &out);

} // namespace dnastore

#endif // DNASTORE_CONSENSUS_TWO_SIDED_HH
