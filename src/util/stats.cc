#include "util/stats.hh"

#include <algorithm>

namespace dnastore {

void
RunningStat::add(double x)
{
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    double delta = x - mean_;
    mean_ += delta / double(n_);
    m2_ += delta * (x - mean_);
}

double
RunningStat::variance() const
{
    return n_ > 1 ? m2_ / double(n_ - 1) : 0.0;
}

double
giniIndex(const std::vector<double> &samples)
{
    size_t n = samples.size();
    if (n == 0)
        return 0.0;
    std::vector<double> sorted(samples);
    std::sort(sorted.begin(), sorted.end());
    double cum_weighted = 0.0;
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
        cum_weighted += double(i + 1) * sorted[i];
        total += sorted[i];
    }
    if (total <= 0.0)
        return 0.0;
    return (2.0 * cum_weighted) / (double(n) * total) -
        (double(n) + 1.0) / double(n);
}

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    if (samples.size() == 1)
        return samples[0];
    double rank = (p / 100.0) * double(samples.size() - 1);
    size_t lo = size_t(rank);
    size_t hi = std::min(lo + 1, samples.size() - 1);
    double frac = rank - double(lo);
    return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

} // namespace dnastore
