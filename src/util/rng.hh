/**
 * @file
 * Deterministic pseudo-random number generation for all simulations.
 *
 * Every stochastic component in the library (channel, coverage sampling,
 * synthetic workload generation) draws from an explicitly passed Rng so
 * that experiments are reproducible from a single seed.
 */

#ifndef DNASTORE_UTIL_RNG_HH
#define DNASTORE_UTIL_RNG_HH

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dnastore {

/**
 * The splitmix64 finalizer: a stateless 64-bit mixer. Used to expand
 * seeds into generator state and wherever a cheap position-keyed
 * pseudo-random value is needed (e.g. the daemon's trial seeds) —
 * one definition, so the constants can never diverge.
 */
uint64_t splitmix64Mix(uint64_t z);

/**
 * xoshiro256** pseudo-random generator with convenience distributions.
 *
 * Chosen over std::mt19937 for speed and for a guaranteed stable output
 * sequence across standard-library implementations, which keeps the
 * benchmark outputs reproducible bit-for-bit.
 */
class Rng
{
  public:
    /** Seed the generator; distinct seeds give independent streams. */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /*
     * The three hot draws are defined here so that callers inline
     * them: a per-base loop holding an Rng in a local keeps the state
     * in registers, and nextBelow with a constant bound folds its
     * divisions away.
     */

    /** Next raw 64-bit draw. */
    uint64_t
    next()
    {
        const uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound), bound must be > 0. */
    uint64_t
    nextBelow(uint64_t bound)
    {
        // Lemire-style rejection to remove modulo bias.
        uint64_t threshold = (-bound) % bound;
        for (;;) {
            uint64_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** Uniform double in [0, 1): the top 53 bits of next(), scaled. */
    double nextDouble() { return (next() >> 11) * 0x1.0p-53; }

    /** Standard normal via Marsaglia polar method. */
    double nextGaussian();

    /**
     * Gamma-distributed draw (Marsaglia-Tsang squeeze method).
     *
     * @param shape Shape parameter k > 0.
     * @param scale Scale parameter theta > 0.
     */
    double nextGamma(double shape, double scale);

    /** Fisher-Yates shuffle of an index vector. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i) {
            size_t j = nextBelow(i);
            std::swap(v[i - 1], v[j]);
        }
    }

  private:
    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t s_[4];
    bool haveSpareGaussian_ = false;
    double spareGaussian_ = 0.0;
};

/**
 * Integer form of the test `nextDouble() < p`: the smallest T such
 * that, for every 53-bit k, `k < T` exactly when `k * 2^-53 < p`. A
 * loop that draws `k = rng.next() >> 11` and compares it with T makes
 * the same decision as one comparing nextDouble() with p, and draws
 * the same stream, without the int-to-double conversion. Exact: both
 * k * 2^-53 and p * 2^53 are representable, so the ceiling loses
 * nothing. 0 for p <= 0 (or NaN, which no draw is below), 2^53 for
 * p >= 1.
 */
inline uint64_t
drawThreshold(double p)
{
    if (!(p > 0.0))
        return 0;
    if (p >= 1.0)
        return uint64_t(1) << 53;
    return uint64_t(std::ceil(p * 0x1.0p53));
}

} // namespace dnastore

#endif // DNASTORE_UTIL_RNG_HH
