/**
 * @file
 * Exact constrained edit-distance median via branch and bound.
 *
 * The paper (section 3.2) demonstrates that the reliability skew is
 * fundamental — not an artifact of a particular heuristic — by finding
 * *optimal* reconstructions of short strings by brute force: all
 * strings of the target length whose summed edit distance to the noisy
 * traces is minimal, with ties broken adversarially (favoring accuracy
 * in the middle over the ends, i.e., *against* the expected skew).
 * The skew survives even then (Figure 6).
 *
 * This module implements that search as a depth-first branch and bound
 * over string prefixes. For each trace we keep the DP row of edit
 * distances between the current prefix and all trace prefixes; an
 * admissible lower bound prunes the exponential search down to
 * practical sizes for L around 20, as in the paper.
 */

#ifndef DNASTORE_CONSENSUS_MEDIAN_BNB_HH
#define DNASTORE_CONSENSUS_MEDIAN_BNB_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dnastore {

/** A string over a small alphabet {0 .. sigma-1}. */
using Seq = std::vector<uint8_t>;

/** Result of a constrained-median search. */
struct MedianResult
{
    /** All length-L strings achieving the minimal distance sum. */
    std::vector<Seq> optima;

    /** The minimal summed edit distance. */
    size_t cost = 0;

    /** True if the optima list was truncated at the configured cap. */
    bool capped = false;
};

/**
 * Find every string of length @p target_len over an alphabet of size
 * @p sigma minimizing the sum of edit distances to @p traces.
 *
 * @param traces     Noisy copies (each a Seq over the same alphabet).
 * @param target_len Required output length L.
 * @param sigma      Alphabet size (2 for the paper's binary study).
 * @param max_optima Cap on the number of collected co-optimal strings.
 */
MedianResult constrainedMedian(const std::vector<Seq> &traces,
                               size_t target_len, unsigned sigma,
                               size_t max_optima = 4096);

/**
 * Adversarial tie-break from the paper: among co-optimal strings, pick
 * the one that is most accurate towards the middle and least accurate
 * towards the ends relative to @p original, attempting to *reverse*
 * the expected skew.
 */
Seq adversarialPick(const std::vector<Seq> &optima, const Seq &original);

} // namespace dnastore

#endif // DNASTORE_CONSENSUS_MEDIAN_BNB_HH
