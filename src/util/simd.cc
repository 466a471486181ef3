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
 * Bounded Myers (Hyyrö's formulation of global edit distance). Pattern
 * row i (1-based) is bit (i - 1) & 63 of mask word 1 + (i - 1) / 64;
 * text column j (1-based) is the DP column after text[j - 1].
 *
 * With t the limit and delta = m - n, a path of cost <= t through a
 * cell on diagonal d = i - j costs at least |d| to reach it and
 * |delta - d| to leave it (Ukkonen 1985), so it only visits the
 * diagonals [lo, hi] = [ceil((delta - t) / 2), floor((delta + t) / 2)].
 * Column j steps the rows [j + lo, j + hi] and fabricates what the band
 * cuts off: the row entering at the bottom takes vertical delta +1,
 * the row above the top horizontal delta +1. Neither undercuts the
 * true value, so every computed value is >= the true one, and a
 * path of cost <= t stays inside the band, so D(m, n) is exact
 * whenever it is <= t.
 *
 * The computed deltas stay in {-1, 0, +1}, so D never decreases
 * along a diagonal: D(j + delta, j), the cell on the final cell's
 * diagonal, bounds the result from below, and a text whose cell there
 * exceeds the limit stops early. Every tier runs these recurrences, so
 * the tiers are bit-identical.
 *
 * Two kernels step the band:
 *  - diagonalSingle, when it spans at most 64 rows: one word whose
 *    bit k is row j + lo + k slides down a row per column, so the
 *    final diagonal is the fixed bit delta - lo and the abort is one
 *    compare per column;
 *  - blockSingle otherwise: the 64-row blocks that meet the band,
 *    with the score at the bottom row of the last active block, and
 *    the abort every kAbortStride columns.
 */

/** Every column multiple of this checks the block kernel's abort. */
constexpr size_t kAbortStride = 8;

/** The bounded result: @p d when d <= limit, else limit + 1. */
inline uint32_t
boundedDist(size_t d, size_t limit)
{
    return uint32_t(d <= limit ? d : limit + 1);
}

/** Mask words per base: a zero word, the blocks, a zero word. */
inline size_t
maskStride(size_t blocks)
{
    return blocks + 2;
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
 * Ukkonen's diagonals [lo, hi] for the length gap delta = m - n at
 * limit t >= |delta|. Then -t <= lo <= delta <= hi <= t.
 */
struct Diagonals
{
    ptrdiff_t lo, hi;

    Diagonals(ptrdiff_t delta, size_t t)
        : lo(-((ptrdiff_t(t) - delta) / 2)), hi((delta + ptrdiff_t(t)) / 2)
    {
    }

    /** Whether the band fits one word: at most 64 rows. */
    bool oneWord() const { return hi - lo < 64; }
};

/**
 * One text whose band fits one word; |m - n| <= limit, n >= 1.
 *
 * Bit k of the word is row j + lo + k at column j, so moving to the
 * next column shifts the vertical deltas down a bit and lets the
 * fabricated row in at bit 63. Rows above row 1 are virtual: they
 * read zero masks, and start with vertical delta -1 down to row 0,
 * which makes D(i, j) = j - i there, so the horizontal delta +1 the
 * top always takes is exact until row 1 is the top. The masks' zero
 * words hold those rows and the rows past m (no row at or above m
 * depends on them), so the window is two words and a shift.
 */
uint32_t
diagonalSingle(const uint64_t *peq, size_t stride, size_t m,
               const uint8_t *text, size_t n, size_t limit, ptrdiff_t lo)
{
    const ptrdiff_t delta = ptrdiff_t(m) - ptrdiff_t(n);
    const unsigned tap = unsigned(delta - lo);
    // Column 0: D(i, 0) = |i|, deltas -1 for rows lo..0 (lo >= -63).
    uint64_t vn = ~uint64_t(0) >> (63 + lo);
    uint64_t vp = ~vn;
    uint64_t score = uint64_t(delta < 0 ? -delta : delta);
    // Row i is bit i + 63 of a base's masks; the window starts at row
    // j + lo.
    size_t at = size_t(lo + 63);
    for (size_t j = 1; j <= n; ++j) {
        ++at;
        const uint64_t *w = peq + size_t(text[j - 1]) * stride + (at >> 6);
        const unsigned sh = unsigned(at & 63);
        const uint64_t eq = (w[0] >> sh) | ((w[1] << 1) << (63 - sh));
        vp = (vp >> 1) | (uint64_t(1) << 63);
        vn >>= 1;
        // D(j + delta, j) - D(j - 1 + delta, j - 1): the vertical
        // delta into the tap row, then its horizontal delta.
        score += ((vp >> tap) & 1) - ((vn >> tap) & 1);
        const uint64_t x = eq | vn;
        const uint64_t d0 = (((x & vp) + vp) ^ vp) | x;
        uint64_t hp = vn | ~(d0 | vp);
        uint64_t hn = vp & d0;
        score += ((hp >> tap) & 1) - ((hn >> tap) & 1);
        hp = (hp << 1) | 1;
        hn <<= 1;
        vp = hn | ~(d0 | hp);
        vn = hp & d0;
        if (score > limit)
            return uint32_t(limit + 1);
    }
    return uint32_t(score);
}

/**
 * The active blocks [first, last]: those meeting rows
 * [j + lo, j + hi] at column j. Past column 1 both edges move down
 * one row per column, so advancing is a compare or two.
 */
struct Band
{
    size_t m, blocks;
    Diagonals diagonals;
    size_t first = 0, last = 0;
    unsigned shift = bottomBit(0, m, blocks); //!< Bottom bit of last.

    /** Move to column j >= 1; returns the rows entering at the bottom. */
    uint64_t
    advance(size_t j)
    {
        uint64_t entered = 0;
        // Block last + 1 starts at row 64 * (last + 1) + 1 <= m.
        while (last + 1 < blocks &&
               ptrdiff_t(64 * (last + 1)) < ptrdiff_t(j) + diagonals.hi) {
            entered += blockHeight(++last, m);
            shift = bottomBit(last, m, blocks);
        }
        // Block first ends at row 64 * (first + 1).
        if (ptrdiff_t(64 * (first + 1)) < ptrdiff_t(j) + diagonals.lo)
            ++first;
        return entered;
    }
};

/**
 * Whether the block kernel's abort fires at column @p j against a
 * text of length @p n: every kAbortStride columns, D(j + m - n, j) --
 * the cell on the final cell's diagonal -- is the score minus the
 * vertical deltas of the rows below it, down to the last active
 * block's bottom row.
 */
inline bool
diagonalPastLimit(size_t j, size_t m, size_t n, size_t blocks,
                  size_t last, size_t limit, uint64_t score,
                  const uint64_t *vp, const uint64_t *vn)
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
        cell += popcount64(vn[b] & rows);
        cell -= popcount64(vp[b] & rows);
    }
    return cell > limit;
}

/**
 * One text whose band spans more than 64 rows; |n - m| <= limit,
 * n >= 1.
 */
uint32_t
blockSingle(const uint64_t *peq, size_t m, size_t blocks,
            const uint8_t *text, size_t n, size_t limit,
            const Diagonals &diagonals)
{
    static thread_local std::vector<uint64_t> vp, vn;
    vp.assign(blocks, ~uint64_t(0));
    vn.assign(blocks, 0);

    const size_t stride = maskStride(blocks);
    Band band{ m, blocks, diagonals };
    uint64_t score = blockHeight(0, m);
    for (size_t j = 1; j <= n; ++j) {
        score += band.advance(j);
        const size_t last = band.last;
        const unsigned shift = band.shift;
        const uint64_t *eq_row = peq + size_t(text[j - 1]) * stride + 1;
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
                                       score, vp.data(), vn.data()))
            return uint32_t(limit + 1);
    }
    return boundedDist(score, limit);
}

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

size_t
myersMaskWords(size_t m)
{
    return size_t(4) * maskStride((m + 63) / 64);
}

void
myersMasks(const uint8_t *pattern, size_t m, uint64_t *peq)
{
    const size_t stride = maskStride((m + 63) / 64);
    std::fill(peq, peq + 4 * stride, 0);
    uint64_t *const rows = peq + 1; // row 1's word of base 0
    size_t i = 0;
#ifdef __SSE2__
    // 16 rows per compare; a 16-row run never straddles a word.
    if (activeLevel() != Level::Scalar) {
        for (; i + 16 <= m; i += 16) {
            const __m128i v = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(pattern + i));
            for (unsigned b = 0; b < 4; ++b) {
                const unsigned bits = unsigned(_mm_movemask_epi8(
                    _mm_cmpeq_epi8(v, _mm_set1_epi8(char(b)))));
                rows[b * stride + (i >> 6)] |= uint64_t(bits) << (i & 63);
            }
        }
    }
#endif
    for (; i < m; ++i)
        rows[size_t(pattern[i]) * stride + (i >> 6)] |= uint64_t(1)
                                                       << (i & 63);
}

void
myersBatch(const uint64_t *peq, size_t m, const uint8_t *const *texts,
           const size_t *lens, size_t k, size_t limit, uint32_t *dists)
{
    const size_t blocks = (m + 63) / 64;
    const size_t stride = maskStride(blocks);
    for (size_t l = 0; l < k; ++l) {
        const size_t n = lens[l];
        // An empty text or a length gap past the limit needs no DP.
        const size_t gap = n > m ? n - m : m - n;
        if (gap > limit || n == 0) {
            dists[l] = boundedDist(gap, limit);
            continue;
        }
        // Past max(m, n) the limit changes nothing; clamping keeps the
        // band within the table.
        const size_t t = std::min(limit, std::max(m, n));
        const Diagonals band(ptrdiff_t(m) - ptrdiff_t(n), t);
        dists[l] = band.oneWord()
            ? diagonalSingle(peq, stride, m, texts[l], n, t, band.lo)
            : blockSingle(peq, m, blocks, texts[l], n, t, band);
    }
}

} // namespace simd
} // namespace dnastore
