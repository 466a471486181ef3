#include "util/simd.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#define DNASTORE_SIMD_X86 1
#include <immintrin.h>
#endif

namespace dnastore {
namespace simd {

namespace {

/** Portable popcount (no POPCNT instruction assumed). */
inline uint32_t
popcount64(uint64_t x)
{
    x = x - ((x >> 1) & 0x5555555555555555ULL);
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return uint32_t((x * 0x0101010101010101ULL) >> 56);
}

/*
 * Bounded Myers (Hyyrö's block formulation of global edit distance).
 * Pattern row i (1-based) is bit (i - 1) & 63 of block (i - 1) / 64;
 * text column j (1-based) is the DP column after text[j - 1]. The
 * score is D at the bottom row of the last active block (row m once
 * the last block is active).
 *
 * Only a cell with |i - j| <= limit can hold a value <= limit, and
 * such a cell's optimal path never leaves that band, so column j
 * steps only the blocks that meet rows [j - limit, j + limit]. A
 * block entering at the bottom starts with all vertical deltas +1,
 * so the score grows by its height; the first active block takes
 * horizontal carry +1. These fabricated inputs never undercut the
 * true values, so every computed value is >= the true one and exact
 * wherever the true value is <= limit.
 *
 * D never decreases along a diagonal, so D(j + m - n, j) bounds the
 * final distance from below; a lane whose cell there exceeds the
 * limit stops early. Every tier runs this same recurrence, which is
 * what makes the tiers bit-identical.
 */

/** Every column multiple of this checks the abort diagonal. */
constexpr size_t kAbortStride = 8;

/** The bounded result: @p d when d <= limit, else limit + 1. */
inline uint32_t
boundedDist(size_t d, size_t limit)
{
    return uint32_t(d <= limit ? d : limit + 1);
}

/** Rows from block b - 1's bottom row to block b's. */
inline uint64_t
blockHeight(size_t b, size_t m)
{
    return uint64_t(std::min(64 * (b + 1), m) - 64 * b);
}

/** Bit of block @p b's bottom row: 63, or row m's in the last block. */
inline unsigned
bottomBit(size_t b, size_t m, size_t blocks)
{
    return b + 1 == blocks ? unsigned((m - 1) & 63) : 63;
}

/**
 * The active blocks [first, last]: those meeting rows
 * [j - limit, j + limit] at column j. Past column 1 both edges move
 * down at most one row per column, so advancing is a compare or two.
 */
struct Band
{
    size_t m, blocks, limit;
    size_t first = 0, last = 0;
    unsigned shift = bottomBit(0, m, blocks); //!< Bottom bit of last.

    /** Move to column j >= 1; returns the rows entering at the bottom. */
    uint64_t
    advance(size_t j)
    {
        uint64_t entered = 0;
        // Block last + 1 starts at row 64 * (last + 1) + 1 <= m.
        while (last + 1 < blocks && 64 * (last + 1) < j + limit) {
            entered += blockHeight(++last, m);
            shift = bottomBit(last, m, blocks);
        }
        // Block first ends at row 64 * (first + 1).
        if (j > limit + 64 * (first + 1))
            ++first;
        return entered;
    }
};

/**
 * Whether the abort fires at column @p j against a text of length
 * @p n: every kAbortStride columns, D(j + m - n, j) -- the cell on
 * the final cell's diagonal -- is the score minus the vertical deltas
 * of the rows below it, down to the last active block's bottom row.
 * Per-block words lie @p stride apart (one per lane).
 */
inline bool
diagonalPastLimit(size_t j, size_t m, size_t n, size_t blocks,
                  size_t last, size_t limit, uint64_t score,
                  const uint64_t *vp, const uint64_t *vn, size_t stride)
{
    // With limit >= max(m, n) no value on the diagonal can pass it.
    if (j % kAbortStride != 0 || j + m <= n || limit >= std::max(m, n))
        return false;
    const size_t i = j + m - n;
    const size_t first = (i - 1) / 64;
    uint64_t cell = score;
    for (size_t b = first; b <= last; ++b) {
        // Rows up to the block's bottom (2 << 63 wraps to 0, keeping
        // the whole word), and in row i's block only those below it.
        uint64_t rows = (uint64_t(2) << bottomBit(b, m, blocks)) - 1;
        if (b == first)
            rows &= ~((uint64_t(2) << ((i - 1) & 63)) - 1);
        cell += popcount64(vn[b * stride] & rows);
        cell -= popcount64(vp[b * stride] & rows);
    }
    return cell > limit;
}

/** One text against the pattern; |n - m| <= limit, n >= 1. */
uint32_t
myersSingle(const uint64_t *peq, size_t m, size_t blocks,
            const uint8_t *text, size_t n, size_t limit)
{
    static thread_local std::vector<uint64_t> vp, vn;
    vp.assign(blocks, ~uint64_t(0));
    vn.assign(blocks, 0);

    Band band{ m, blocks, limit };
    uint64_t score = blockHeight(0, m);
    for (size_t j = 1; j <= n; ++j) {
        score += band.advance(j);
        const size_t last = band.last;
        const unsigned shift = band.shift;
        const uint64_t *eq_row = peq + size_t(text[j - 1]) * blocks;
        // Horizontal carries in as two 0/1 words: branch-free.
        uint64_t hp = 1, hn = 0;
        for (size_t blk = band.first; blk <= last; ++blk) {
            const uint64_t pv = vp[blk], mv = vn[blk];
            const uint64_t xv = eq_row[blk] | mv;
            const uint64_t eq = eq_row[blk] | hn;
            const uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
            uint64_t ph = mv | ~(xh | pv);
            uint64_t mh = pv & xh;
            if (blk == last)
                score += ((ph >> shift) & 1) - ((mh >> shift) & 1);
            const uint64_t hout_p = ph >> 63, hout_n = mh >> 63;
            ph = (ph << 1) | hp;
            mh = (mh << 1) | hn;
            vp[blk] = mh | ~(xv | ph);
            vn[blk] = ph & xv;
            hp = hout_p;
            hn = hout_n;
        }
        if (j < n && diagonalPastLimit(j, m, n, blocks, last, limit,
                                       score, vp.data(), vn.data(), 1))
            return uint32_t(limit + 1);
    }
    return boundedDist(score, limit);
}

/**
 * The checks every tier makes before any DP: an empty text and a
 * length gap past the limit. Returns true once *dist is settled.
 */
inline bool
settledWithoutDp(size_t m, size_t n, size_t limit, uint32_t *dist)
{
    const size_t gap = n > m ? n - m : m - n;
    if (gap > limit || n == 0) {
        *dist = boundedDist(gap, limit);
        return true;
    }
    return false;
}

void
myersBatchScalar(const uint64_t *peq, size_t m, size_t blocks,
                 const uint8_t *const *texts, const size_t *lens,
                 size_t k, size_t limit, uint32_t *dists)
{
    for (size_t l = 0; l < k; ++l) {
        if (settledWithoutDp(m, lens[l], limit, &dists[l]))
            continue;
        // Past max(m, n) the limit changes nothing; clamping keeps
        // j + limit from overflowing.
        dists[l] = myersSingle(
            peq, m, blocks, texts[l], lens[l],
            std::min(limit, std::max(m, lens[l])));
    }
}

#ifdef DNASTORE_SIMD_X86

// -------------------------------------------------------------- AVX2 tier

__attribute__((target("avx2,popcnt"))) void
myersBatch4Avx2(const uint64_t *peq, size_t m, size_t blocks,
                const uint8_t *const *texts, const size_t *lens,
                size_t k, size_t limit, uint32_t *dists)
{
    // Lane l runs pattern-vs-texts[l], column-lockstep over the shared
    // band; a lane past its end, or aborted, reads an all-zero match
    // row so its state keeps stepping without branching.
    static thread_local std::vector<uint64_t> vp, vn, zero_row;
    vp.assign(4 * blocks, ~uint64_t(0));
    vn.assign(4 * blocks, 0);
    zero_row.assign(blocks, 0);

    const uint8_t *text[4];
    size_t end[4]; // last column of a live lane; 0 once retired
    size_t max_len = 0, open = 0;
    for (size_t l = 0; l < 4; ++l) {
        text[l] = l < k ? texts[l] : nullptr;
        end[l] = 0;
        if (l >= k || settledWithoutDp(m, lens[l], limit, &dists[l]))
            continue;
        end[l] = lens[l];
        ++open;
        max_len = std::max(max_len, lens[l]);
    }
    if (open == 0)
        return;
    // As in myersBatchScalar: past max(m, n) the limit changes nothing.
    limit = std::min(limit, std::max(m, max_len));

    const __m256i one = _mm256_set1_epi64x(1);
    const __m256i ones = _mm256_set1_epi64x(-1);
    Band band{ m, blocks, limit };
    __m256i score = _mm256_set1_epi64x(int64_t(blockHeight(0, m)));
    for (size_t j = 1; j <= max_len; ++j) {
        if (const uint64_t entered = band.advance(j))
            score = _mm256_add_epi64(score,
                                     _mm256_set1_epi64x(int64_t(entered)));
        const size_t last = band.last;
        const int shift = int(band.shift);
        const uint64_t *row[4];
        for (size_t l = 0; l < 4; ++l) {
            row[l] = j <= end[l] ? peq + size_t(text[l][j - 1]) * blocks
                                 : zero_row.data();
        }
        __m256i hp = one;                    // horizontal carry +1 in
        __m256i hn = _mm256_setzero_si256(); // horizontal carry -1 in
        for (size_t blk = band.first; blk <= last; ++blk) {
            const __m256i eq0 = _mm256_set_epi64x(
                int64_t(row[3][blk]), int64_t(row[2][blk]),
                int64_t(row[1][blk]), int64_t(row[0][blk]));
            __m256i pv = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(vp.data() + 4 * blk));
            __m256i mv = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(vn.data() + 4 * blk));
            const __m256i xv = _mm256_or_si256(eq0, mv);
            const __m256i eq = _mm256_or_si256(eq0, hn);
            const __m256i sum =
                _mm256_add_epi64(_mm256_and_si256(eq, pv), pv);
            const __m256i xh =
                _mm256_or_si256(_mm256_xor_si256(sum, pv), eq);
            __m256i ph = _mm256_or_si256(
                mv, _mm256_andnot_si256(_mm256_or_si256(xh, pv), ones));
            __m256i mh = _mm256_and_si256(pv, xh);
            if (blk == last) {
                score = _mm256_add_epi64(
                    score,
                    _mm256_and_si256(_mm256_srli_epi64(ph, shift), one));
                score = _mm256_sub_epi64(
                    score,
                    _mm256_and_si256(_mm256_srli_epi64(mh, shift), one));
            }
            const __m256i hout_p = _mm256_srli_epi64(ph, 63);
            const __m256i hout_n = _mm256_srli_epi64(mh, 63);
            ph = _mm256_or_si256(_mm256_slli_epi64(ph, 1), hp);
            mh = _mm256_or_si256(_mm256_slli_epi64(mh, 1), hn);
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(vp.data() + 4 * blk),
                _mm256_or_si256(
                    mh, _mm256_andnot_si256(_mm256_or_si256(xv, ph),
                                            ones)));
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(vn.data() + 4 * blk),
                _mm256_and_si256(ph, xv));
            hp = hout_p;
            hn = hout_n;
        }
        if (j % kAbortStride != 0 && j != end[0] && j != end[1] &&
            j != end[2] && j != end[3])
            continue;
        uint64_t s[4];
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(s), score);
        for (size_t l = 0; l < 4; ++l) {
            if (j > end[l])
                continue;
            if (j == end[l]) {
                dists[l] = boundedDist(s[l], limit);
            } else if (diagonalPastLimit(j, m, end[l], blocks, last,
                                         limit, s[l], vp.data() + l,
                                         vn.data() + l, 4)) {
                dists[l] = uint32_t(limit + 1);
            } else {
                continue;
            }
            end[l] = 0; // retired: reads the zero row from here on
            if (--open == 0)
                return;
        }
    }
}

#endif // DNASTORE_SIMD_X86

// --------------------------------------------------------------- dispatch

/** The best tier the CPU supports. */
Level
hardwareLevel()
{
#ifdef DNASTORE_SIMD_X86
    if (__builtin_cpu_supports("avx2"))
        return Level::Avx2;
#endif
    return Level::Scalar;
}

/**
 * The tier myersBatch runs: the hardware's at startup, or Scalar when
 * DNASTORE_FORCE_SCALAR is set. setLevel may store to it while
 * kernels are in flight on pool workers; each call reads it once and
 * finishes on that tier, which is output-identical either way.
 */
std::atomic<Level> &
tier()
{
    static std::atomic<Level> level{ [] {
        const char *force = std::getenv("DNASTORE_FORCE_SCALAR");
        return force != nullptr && force[0] != '\0' ? Level::Scalar
                                                    : hardwareLevel();
    }() };
    return level;
}

} // namespace

Level
activeLevel()
{
    return tier().load(std::memory_order_relaxed);
}

const char *
levelName(Level level)
{
    return level == Level::Avx2 ? "avx2" : "scalar";
}

Level
setLevel(Level level)
{
    // A forced-scalar environment still allows explicit test overrides
    // up to the hardware's capability.
    level = std::min(level, hardwareLevel());
    tier().store(level, std::memory_order_relaxed);
    return level;
}

void
myersBatch(const uint64_t *peq, size_t m, size_t blocks,
           const uint8_t *const *texts, const size_t *lens, size_t k,
           size_t limit, uint32_t *dists)
{
#ifdef DNASTORE_SIMD_X86
    if (activeLevel() == Level::Avx2 && k > 1) {
        // The AVX2 kernel drives at most 4 lanes; chunk larger
        // batches so every tier fills all of dists[0..k).
        for (size_t base = 0; base < k; base += 4) {
            size_t lanes = std::min<size_t>(4, k - base);
            if (lanes > 1)
                myersBatch4Avx2(peq, m, blocks, texts + base,
                                lens + base, lanes, limit, dists + base);
            else
                myersBatchScalar(peq, m, blocks, texts + base,
                                 lens + base, lanes, limit, dists + base);
        }
        return;
    }
#endif
    myersBatchScalar(peq, m, blocks, texts, lens, k, limit, dists);
}

} // namespace simd
} // namespace dnastore
