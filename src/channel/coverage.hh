/**
 * @file
 * Sequencing coverage models.
 *
 * The number of reads per cluster is not constant in practice: the
 * paper notes (section 4.1) that coverage follows a Gamma distribution
 * with significant variation across clusters, which is one of the
 * reasons unequal error correction cannot be provisioned statically.
 */

#ifndef DNASTORE_CHANNEL_COVERAGE_HH
#define DNASTORE_CHANNEL_COVERAGE_HH

#include <cstddef>

#include "util/rng.hh"

namespace dnastore {

/** Distribution of per-cluster read counts. */
class CoverageModel
{
  public:
    /**
     * Every cluster receives exactly @p n reads.
     * @throws std::invalid_argument on a checkFixed() failure.
     */
    static CoverageModel fixed(size_t n);

    /**
     * The fixed-coverage rule, run by fixed(), api::ChannelOptions and
     * Store::retrieveAt: at least one read. The broken rule, or
     * nullptr.
     */
    static const char *checkFixed(size_t n);

    /**
     * Gamma-distributed coverage with the given mean.
     *
     * @param mean  Average reads per cluster.
     * @param shape Gamma shape parameter; larger = tighter spread.
     *              The scale is mean/shape. Draws are rounded and
     *              clamped to be at least 1 (a cluster that exists has
     *              at least one read; zero-read clusters are modelled
     *              separately as erasures by the pipeline).
     * @throws std::invalid_argument on a checkGamma() failure.
     */
    static CoverageModel gamma(double mean, double shape);

    /**
     * The gamma rule, run by gamma() and api::ChannelOptions: mean,
     * then shape, finite and > 0. The first broken one, or nullptr.
     */
    static const char *checkGamma(double mean, double shape);

    /** Sample the number of reads for one cluster. */
    size_t sample(Rng &rng) const;

    /** Configured mean coverage. */
    double mean() const { return mean_; }

    /** Gamma shape parameter (meaningless for fixed models). */
    double shape() const { return shape_; }

    /** True if this model always returns the same count. */
    bool isFixed() const { return fixed_; }

  private:
    CoverageModel(bool fixed, double mean, double shape)
        : fixed_(fixed), mean_(mean), shape_(shape)
    {}

    bool fixed_;
    double mean_;
    double shape_;
};

} // namespace dnastore

#endif // DNASTORE_CHANNEL_COVERAGE_HH
