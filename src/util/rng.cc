#include "util/rng.hh"

#include <cmath>

namespace dnastore {

uint64_t
splitmix64Mix(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

namespace {

/** splitmix64 stream, used to expand the user seed into xoshiro state. */
uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    return splitmix64Mix(x);
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto &w : s_)
        w = splitmix64(sm);
    // Avoid the pathological all-zero state.
    if (!(s_[0] | s_[1] | s_[2] | s_[3]))
        s_[0] = 1;
}

double
Rng::nextGaussian()
{
    if (haveSpareGaussian_) {
        haveSpareGaussian_ = false;
        return spareGaussian_;
    }
    double u, v, s;
    do {
        u = 2.0 * nextDouble() - 1.0;
        v = 2.0 * nextDouble() - 1.0;
        s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    double mul = std::sqrt(-2.0 * std::log(s) / s);
    spareGaussian_ = v * mul;
    haveSpareGaussian_ = true;
    return u * mul;
}

double
Rng::nextGamma(double shape, double scale)
{
    if (shape < 1.0) {
        // Boost the shape and correct with a power of a uniform draw.
        double u = nextDouble();
        while (u == 0.0)
            u = nextDouble();
        return nextGamma(shape + 1.0, scale) * std::pow(u, 1.0 / shape);
    }
    const double d = shape - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    for (;;) {
        double x, v;
        do {
            x = nextGaussian();
            v = 1.0 + c * x;
        } while (v <= 0.0);
        v = v * v * v;
        double u = nextDouble();
        if (u < 1.0 - 0.0331 * x * x * x * x)
            return d * v * scale;
        if (u > 0.0 &&
            std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
            return d * v * scale;
        }
    }
}

} // namespace dnastore
