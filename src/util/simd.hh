/**
 * @file
 * The runtime-dispatched SIMD tier, the vector kernel it picks, and
 * the decode path's byte-run compares.
 *
 * The tier is chosen once at startup from CPUID, and every path it
 * picks returns bit-identical results, so the choice never changes an
 * output (the determinism suites run with DNASTORE_FORCE_SCALAR=1 to
 * prove it). Two steps follow it:
 *  - myersBatch, bounded Myers bit-parallel edit distance for cluster
 *    candidate verification: an AVX2 path that runs four texts in the
 *    lanes of one register, or a portable scalar path. The AVX2 path
 *    is compiled with a per-function target attribute, so the library
 *    stays runnable on any x86-64 (and non-x86 builds use the scalar
 *    path throughout) without -march flags.
 *  - consensus's mask gather (consensus/bma.cc): SSE2 byte compares
 *    (baseline on every x86-64) on the Avx2 tier, multiplies on
 *    Scalar.
 *
 * matchRunForward/Backward serve consensus's unanimity runs. Those
 * runs average a few bases, so they are a portable 8-byte-word loop,
 * inline here, with no vector tier.
 */

#ifndef DNASTORE_UTIL_SIMD_HH
#define DNASTORE_UTIL_SIMD_HH

#include <cstddef>
#include <cstdint>

namespace dnastore {
namespace simd {

/** Instruction-set tiers myersBatch and the BMA gather dispatch over. */
enum class Level
{
    Scalar = 0, //!< Portable C++ (also the DNASTORE_FORCE_SCALAR path).
    Avx2 = 1,   //!< Four Myers automata in the lanes of one register.
};

/**
 * The dispatch tier in use. Detected once from CPUID; the
 * DNASTORE_FORCE_SCALAR environment variable (any non-empty value)
 * pins it to Scalar for fallback-coverage runs.
 */
Level activeLevel();

/** Human-readable tier name ("scalar", "avx2"). */
const char *levelName(Level level);

/**
 * Override the dispatch tier, clamped to what the CPU supports.
 * Testing hook: lets one process compare tiers against each other.
 * Returns the tier actually selected.
 *
 * Thread-safe: the tier is one atomic, so kernels already in flight
 * (e.g. on persistent pool workers) simply finish on the tier they
 * started with — which is output-identical by the bit-identity
 * contract above.
 */
Level setLevel(Level level);

/** Length of the longest common prefix of a[0..n) and b[0..n). */
inline size_t
matchRunForward(const uint8_t *a, const uint8_t *b, size_t n)
{
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        uint64_t x, y;
        __builtin_memcpy(&x, a + i, 8);
        __builtin_memcpy(&y, b + i, 8);
        if (x != y)
            return i + size_t(__builtin_ctzll(x ^ y)) / 8;
    }
    while (i < n && a[i] == b[i])
        ++i;
    return i;
}

/**
 * Length of the longest common suffix of a[0..n) and b[0..n): the
 * largest k with a[n-1-t] == b[n-1-t] for all t < k.
 */
inline size_t
matchRunBackward(const uint8_t *a, const uint8_t *b, size_t n)
{
    size_t r = n;
    for (; r >= 8; r -= 8) {
        uint64_t x, y;
        __builtin_memcpy(&x, a + r - 8, 8);
        __builtin_memcpy(&y, b + r - 8, 8);
        // Little-endian: the highest byte holds a[r-1].
        if (x != y)
            return (n - r) + size_t(__builtin_clzll(x ^ y)) / 8;
    }
    while (r > 0 && a[r - 1] == b[r - 1])
        --r;
    return n - r;
}

/**
 * Advance k independent bounded Myers global-edit-distance automata
 * that share one pattern.
 *
 * @param peq    Pattern match masks, laid out [base * blocks + block]
 *               (4 * blocks words), as built by editDistanceBatch.
 * @param m      Pattern length in bases (>= 1).
 * @param blocks ceil(m / 64) 64-row blocks.
 * @param texts  k text base pointers (2-bit codes, one byte per
 *               base). Any k; the vector tier internally chunks the
 *               batch into groups of 4.
 * @param lens   Text lengths.
 * @param limit  Distance bound; limit >= max(m, n) is unbounded.
 * @param dists  Out, for all k texts on every tier: the exact
 *               Levenshtein distance pattern vs text i when it is
 *               <= limit, else limit + 1.
 *
 * The bound is what makes it cheap. A length gap over the limit
 * settles a text without any DP; each column steps only the 64-row
 * blocks that meet the diagonal band |row - column| <= limit; and
 * every 8 columns a text whose diagonal toward the final cell already
 * exceeds the limit retires. The AVX2 path runs four automata at a
 * time in the four 64-bit lanes of a vector register,
 * column-lockstep, and returns once every lane has retired or ended.
 * The scalar tier runs the same recurrence one text at a time;
 * results are bit-identical.
 */
void myersBatch(const uint64_t *peq, size_t m, size_t blocks,
                const uint8_t *const *texts, const size_t *lens,
                size_t k, size_t limit, uint32_t *dists);

} // namespace simd
} // namespace dnastore

#endif // DNASTORE_UTIL_SIMD_HH
