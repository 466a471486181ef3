/**
 * @file
 * DNA strand container and sequence-level utilities.
 */

#ifndef DNASTORE_DNA_STRAND_HH
#define DNASTORE_DNA_STRAND_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dna/nucleotide.hh"

namespace dnastore {

/** A synthetic DNA strand: an ordered sequence of bases. */
using Strand = std::vector<Base>;

/** Render a strand as an ACGT string. */
std::string strandToString(const Strand &s);

/**
 * Parse an ACGT string into a strand.
 *
 * @throws std::invalid_argument on any non-ACGT character.
 */
Strand strandFromString(const std::string &str);

/** Reverse of a strand (no complementing). */
Strand reversed(const Strand &s);

/** Fraction of bases that are G or C, in [0, 1]; 0 for empty strands. */
double gcContent(const Strand &s);

/** Length of the longest run of a repeated base (homopolymer). */
size_t maxHomopolymerRun(const Strand &s);

/**
 * Levenshtein edit distance between two strands (unit costs for
 * insertion, deletion, and substitution).
 *
 * Computed with Myers' bit-parallel algorithm (Hyyrö's block
 * formulation): 64 DP rows advance per word operation, over
 * thread-local scratch bit vectors, so the steady state does no heap
 * allocation. It is the kernel behind editDistanceBatch, run
 * unbounded. Fuzz-checked against a full-matrix reference.
 */
size_t editDistance(const Strand &a, const Strand &b);

/** Edit distance over raw base ranges (same DP as editDistance). */
size_t editDistanceRange(const Base *a, size_t na, const Base *b,
                         size_t nb);

/**
 * Batched bounded edit distance: for all @p k texts, dists[i] is the
 * Levenshtein distance between @p pattern and texts[i] when that
 * distance is <= @p limit, and limit + 1 otherwise. A limit >=
 * max(m, n) makes every result exact.
 *
 * The pattern's Myers match masks are built once and shared by every
 * comparison, and texts are verified four at a time in the 64-bit
 * lanes of the SIMD kernel (util/simd.hh) when available. The kernel
 * computes only the diagonal band the limit allows and retires a text
 * as soon as its distance provably exceeds the limit, so a rejection
 * costs a fraction of a full table. Results are bit-identical on
 * every dispatch tier; this is the candidate-verification primitive
 * behind read clustering, where one read is checked against several
 * cluster representatives at once.
 */
class StrandView;
void editDistanceBatch(const Base *pattern, size_t m,
                       const StrandView *texts, size_t k, size_t limit,
                       uint32_t *dists);

/** Number of positions where equal-length prefixes differ. */
size_t hammingDistance(const Strand &a, const Strand &b);

} // namespace dnastore

#endif // DNASTORE_DNA_STRAND_HH
