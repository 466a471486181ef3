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

    /** Next raw 64-bit draw. */
    uint64_t next();

    /** Uniform integer in [0, bound), bound must be > 0. */
    uint64_t nextBelow(uint64_t bound);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli trial with success probability p. */
    bool nextBool(double p);

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t nextInRange(int64_t lo, int64_t hi);

    /** Standard normal via Marsaglia polar method. */
    double nextGaussian();

    /**
     * Gamma-distributed draw (Marsaglia-Tsang squeeze method).
     *
     * @param shape Shape parameter k > 0.
     * @param scale Scale parameter theta > 0.
     */
    double nextGamma(double shape, double scale);

    /** Fork an independent child stream (splitmix of a fresh draw). */
    Rng fork();

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
    uint64_t s_[4];
    bool haveSpareGaussian_ = false;
    double spareGaussian_ = 0.0;
};

} // namespace dnastore

#endif // DNASTORE_UTIL_RNG_HH
