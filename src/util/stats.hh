/**
 * @file
 * Small statistics helpers used by the profilers and benchmarks.
 */

#ifndef DNASTORE_UTIL_STATS_HH
#define DNASTORE_UTIL_STATS_HH

#include <cstddef>
#include <vector>

namespace dnastore {

/** Online mean/variance accumulator (Welford). */
class RunningStat
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Number of samples added. */
    size_t count() const { return n_; }

    /** Sample mean (0 if empty). */
    double mean() const { return n_ ? mean_ : 0.0; }

    /** Unbiased sample variance (0 for fewer than two samples). */
    double variance() const;

    /** Smallest sample seen. */
    double min() const { return min_; }

    /** Largest sample seen. */
    double max() const { return max_; }

  private:
    size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Gini inequality index of a non-negative sample set.
 *
 * Returns a value in [0, 1): 0 means perfectly equal, values near 1
 * mean the total is concentrated in few samples. Used to quantify how
 * unevenly errors are distributed across ECC codewords (the property
 * the paper's Gini interleaver equalizes, and its namesake).
 */
double giniIndex(const std::vector<double> &samples);

/** p-th percentile (0..100) via linear interpolation; empty -> 0. */
double percentile(std::vector<double> samples, double p);

} // namespace dnastore

#endif // DNASTORE_UTIL_STATS_HH
