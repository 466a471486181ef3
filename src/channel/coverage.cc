#include "channel/coverage.hh"

#include <cmath>
#include <stdexcept>
#include <string>

namespace dnastore {

CoverageModel
CoverageModel::fixed(size_t n)
{
    if (const char *err = checkFixed(n))
        throw std::invalid_argument(std::string("CoverageModel: ") + err);
    return CoverageModel(true, double(n), 0.0);
}

const char *
CoverageModel::checkFixed(size_t n)
{
    return n == 0 ? "coverage must be >= 1" : nullptr;
}

CoverageModel
CoverageModel::gamma(double mean, double shape)
{
    if (const char *err = checkGamma(mean, shape))
        throw std::invalid_argument(std::string("CoverageModel: ") + err);
    return CoverageModel(false, mean, shape);
}

const char *
CoverageModel::checkGamma(double mean, double shape)
{
    // Finiteness first: NaN fails every ordered comparison.
    if (!std::isfinite(mean))
        return "gamma-mean must be finite";
    if (mean <= 0.0)
        return "gamma-mean must be > 0";
    if (!std::isfinite(shape))
        return "gamma-shape must be finite";
    if (shape <= 0.0)
        return "gamma-shape must be > 0";
    return nullptr;
}

size_t
CoverageModel::sample(Rng &rng) const
{
    if (fixed_)
        return size_t(std::llround(mean_));
    double draw = rng.nextGamma(shape_, mean_ / shape_);
    long long n = std::llround(draw);
    return size_t(n < 1 ? 1 : n);
}

} // namespace dnastore
