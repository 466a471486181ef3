/**
 * @file
 * Runtime-dispatched SIMD kernels for the decode-path inner loops.
 *
 * The kernels serve the retrieve side of the pipeline: base
 * histograms for the clusterer's read soup, unanimity-run detection
 * for consensus, packed-strand mismatch counting, and Myers
 * bit-parallel edit distance for cluster candidate verification.
 * Each kernel here has an AVX2 path, an SSE4.2 path, and a portable
 * scalar fallback; the implementation is chosen once at startup from
 * CPUID, and every path returns bit-identical results so the choice
 * never changes an output (the determinism suites run with DNASTORE_FORCE_SCALAR=1 to
 * prove it).
 *
 * The vector paths are compiled with per-function target attributes,
 * so the library stays runnable on any x86-64 (and non-x86 builds use
 * the scalar path throughout) without -march flags.
 */

#ifndef DNASTORE_UTIL_SIMD_HH
#define DNASTORE_UTIL_SIMD_HH

#include <cstddef>
#include <cstdint>

namespace dnastore {
namespace simd {

/** Instruction-set tiers the kernels dispatch over. */
enum class Level
{
    Scalar = 0, //!< Portable C++ (also the DNASTORE_FORCE_SCALAR path).
    Sse42 = 1,  //!< 16-byte compares + hardware popcount.
    Avx2 = 2,   //!< 32-byte compares, gathered Myers lanes.
};

/**
 * The dispatch tier in use. Detected once from CPUID; the
 * DNASTORE_FORCE_SCALAR environment variable (any non-empty value)
 * pins it to Scalar for fallback-coverage runs.
 */
Level activeLevel();

/** Human-readable tier name ("scalar", "sse4.2", "avx2"). */
const char *levelName(Level level);

/**
 * Override the dispatch tier, clamped to what the CPU supports.
 * Testing hook: lets one process compare tiers against each other.
 * Returns the tier actually selected.
 *
 * Thread-safe: the swap is an atomic pointer flip between immutable
 * per-tier tables, so kernels already in flight (e.g. on persistent
 * pool workers) simply finish on the tier they started with — which
 * is output-identical by the bit-identity contract above.
 */
Level setLevel(Level level);

namespace detail {
// Dispatched wide-input implementations; the inline entry points
// below peel the short cases so hot loops with tiny operands skip the
// indirect call entirely. Results are bit-identical on every tier.
size_t matchRunForwardWide(const uint8_t *a, const uint8_t *b,
                           size_t n);
size_t matchRunBackwardWide(const uint8_t *a, const uint8_t *b,
                            size_t n);
} // namespace detail

/**
 * Accumulate a histogram of the values in vals[0..n) into counts[4].
 * Values must be in {0, 1, 2, 3} (2-bit base codes); counts are
 * added to, not reset.
 */
void histogram4(const uint8_t *vals, size_t n, uint32_t counts[4]);

/** Length of the longest common prefix of a[0..n) and b[0..n). */
inline size_t
matchRunForward(const uint8_t *a, const uint8_t *b, size_t n)
{
    // Most consensus runs end within a word; peel the first 8 bytes
    // inline before dispatching to the vector sweep.
    if (n >= 8) {
        uint64_t x, y;
        __builtin_memcpy(&x, a, 8);
        __builtin_memcpy(&y, b, 8);
        if (x != y)
            return size_t(__builtin_ctzll(x ^ y)) / 8;
        if (n == 8)
            return 8;
        return 8 + detail::matchRunForwardWide(a + 8, b + 8, n - 8);
    }
    size_t i = 0;
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
    if (n >= 8) {
        uint64_t x, y;
        __builtin_memcpy(&x, a + n - 8, 8);
        __builtin_memcpy(&y, b + n - 8, 8);
        if (x != y)
            return size_t(__builtin_clzll(x ^ y)) / 8;
        if (n == 8)
            return 8;
        return 8 + detail::matchRunBackwardWide(a, b, n - 8);
    }
    size_t r = n;
    while (r > 0 && a[r - 1] == b[r - 1])
        --r;
    return n - r;
}

/**
 * Number of differing 2-bit fields between the packed words a[0..words)
 * and b[0..words) (32 fields per word). Trailing pad fields count only
 * if they differ, so zero-padded strands compare cleanly.
 */
size_t diffCountPacked(const uint64_t *a, const uint64_t *b,
                       size_t words);

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
 * Scalar/SSE tiers run the same recurrence one text at a time;
 * results are bit-identical.
 */
void myersBatch(const uint64_t *peq, size_t m, size_t blocks,
                const uint8_t *const *texts, const size_t *lens,
                size_t k, size_t limit, uint32_t *dists);

} // namespace simd
} // namespace dnastore

#endif // DNASTORE_UTIL_SIMD_HH
