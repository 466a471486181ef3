/**
 * @file
 * The runtime-dispatched SIMD tier, the bounded Myers kernel and its
 * pattern masks, and the decode path's byte-run compares.
 *
 * The tier is chosen once at startup from CPUID, and every path it
 * picks returns bit-identical results, so the choice never changes an
 * output (the determinism suites run with DNASTORE_FORCE_SCALAR=1 to
 * prove it). Three steps follow it; AVX2 code is compiled with a
 * per-function target attribute, so the library stays runnable on any
 * x86-64 (and non-x86 builds use the scalar path throughout) without
 * -march flags:
 *  - myersMasks, the match masks of cluster candidate verification:
 *    SSE2 byte compares on the Avx2 tier, one bit per row on Scalar;
 *  - consensus's mask gather (consensus/bma.cc): SSE2 byte compares
 *    (baseline on every x86-64) on the Avx2 tier, multiplies on
 *    Scalar;
 *  - the Reed-Solomon remainder kernel (ecc/rs.cc): the same loop
 *    compiled for AVX2 on the Avx2 tier, for the baseline ISA on
 *    Scalar.
 *
 * myersBatch, bounded Myers bit-parallel edit distance over those
 * masks, is portable code that runs the same on every tier (see its
 * contract below). matchRunForward/Backward serve consensus's
 * unanimity runs. Those runs average a few bases, so they are a
 * portable 8-byte-word loop, inline here, with no vector tier.
 */

#ifndef DNASTORE_UTIL_SIMD_HH
#define DNASTORE_UTIL_SIMD_HH

#include <cstddef>
#include <cstdint>

namespace dnastore {
namespace simd {

/** Instruction-set tiers the steps above dispatch over. */
enum class Level
{
    Scalar = 0, //!< Portable C++ (also the DNASTORE_FORCE_SCALAR path).
    Avx2 = 1,   //!< The vector builds of the three steps above.
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
 * Words of the match-mask table myersMasks builds for an m-base
 * pattern: per base, one zero word (rows -63..0), ceil(m / 64) mask
 * words (row i is bit (i - 1) & 63 of word 1 + (i - 1) / 64), and
 * one zero word (rows past m).
 */
size_t myersMaskWords(size_t m);

/**
 * Fill @p peq (myersMaskWords(m) words) with the match masks of the
 * @p m bases at @p pattern (2-bit codes, one byte per base). The
 * vector tier builds 16 rows per byte compare and movemask per base;
 * Scalar sets one bit per row. Both give the same words.
 */
void myersMasks(const uint8_t *pattern, size_t m, uint64_t *peq);

/**
 * Bounded Myers global edit distance of one pattern against k texts.
 *
 * @param peq    The pattern's match masks, as built by myersMasks.
 * @param m      Pattern length in bases (>= 1).
 * @param texts  k text base pointers (2-bit codes, one byte per
 *               base). Any k.
 * @param lens   Text lengths.
 * @param limit  Distance bound; limit >= max(m, n) is unbounded.
 * @param dists  Out, for all k texts on every tier: the exact
 *               Levenshtein distance pattern vs text i when it is
 *               <= limit, else limit + 1.
 *
 * The bound is what makes it cheap. A length gap over the limit
 * settles a text without any DP. Past that, only Ukkonen's band is
 * computed: with t the limit and delta = m - n, a path of cost <= t
 * only visits the diagonals d = row - column with
 * |d| + |d - delta| <= t, that is the rows
 * [j + ceil((delta - t) / 2), j + floor((delta + t) / 2)] of column
 * j, about t + 1 of them. When those fit one 64-bit word, one word
 * slides down the diagonal a row per column (Hyyro's banded
 * formulation), and the text retires in the first column where its
 * cell on the final diagonal exceeds the limit. Wider bands (the
 * unbounded editDistance, the clusterer's retry at its join limit)
 * step the 64-row blocks that meet the band, and check the final
 * diagonal every 8 columns. Each text runs alone, in the same code on
 * every tier.
 */
void myersBatch(const uint64_t *peq, size_t m,
                const uint8_t *const *texts, const size_t *lens,
                size_t k, size_t limit, uint32_t *dists);

} // namespace simd
} // namespace dnastore

#endif // DNASTORE_UTIL_SIMD_HH
