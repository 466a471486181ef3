/*
 * The one-way BMA core on per-read base masks (see bma.hh).
 *
 * Word h of mask M[b] holds bit 8a + j = "base j of active read
 * 8h + a's window is b": one byte lane per read, one bit per window
 * position. On the vector tiers SSE2 byte compares build the bits of
 * two reads at once; the Scalar tier packs each window's base bit
 * planes with a few multiplies. Clusters of up to 16 reads use two
 * words per mask fixed at compile time, so every word loop unrolls;
 * larger clusters size the same core at runtime.
 */

#include "consensus/bma.hh"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "util/simd.hh"

#ifdef __SSE2__
#include <emmintrin.h>
#endif

namespace dnastore {

namespace {

/** Bit 0 of every byte: one per-read lane of a mask word. */
constexpr uint64_t kLanes = 0x0101010101010101ULL;

/** Bit 7 of every byte: the per-lane result of a byte compare. */
constexpr uint64_t kHigh = 0x8080808080808080ULL;

/** Packs bit 0 of each byte j into bit j of the top byte. */
constexpr uint64_t kPack = 0x0102040810204080ULL;

/** A vote step reads window positions 0..3. */
constexpr size_t kVoteSpan = 4;

/** Per byte lane, bit 7 set iff x >= y (byte values below 128). */
inline uint64_t
geBytes(uint64_t x, uint64_t y)
{
    return ((x | kHigh) - y) & kHigh;
}

/**
 * The next min(rem, 8) bases of a read in lens order, one per byte
 * (byte j = the base j positions past @p p); bytes past the read's
 * end are 0xff, which equals no base. The reversed lens walks the
 * strand downward from @p p, so its load is byte-swapped.
 */
template <bool kRev>
inline uint64_t
loadWindow(const uint8_t *p, ptrdiff_t rem)
{
    uint64_t w;
    if (rem >= 8) {
        if (!kRev) {
            std::memcpy(&w, p, 8);
            return w;
        }
        std::memcpy(&w, p - 7, 8);
        return __builtin_bswap64(w);
    }
    const size_t len = size_t(rem);
    if (!kRev) {
        w = ~uint64_t(0);
        std::memcpy(&w, p, len);
        return w;
    }
    w = 0;
    std::memcpy(&w, p + 1 - len, len);
    return (__builtin_bswap64(w) >> (8 * (8 - len))) |
        (~uint64_t(0) << (8 * len));
}

/**
 * One mask word per base for active reads [first, end), all in one
 * word. With @p byte_compare, two reads' windows share one SSE2
 * register (read a in the low half) and each base's compare and
 * movemask yields their 16 mask bits at once; a missing partner read
 * is all 0xff, which equals no base. The portable path packs each
 * window's base bit planes (bits 0 and 1, and bit 7, which only the
 * past-the-end 0xff has) into a byte with a multiply each. Both give
 * the same bits.
 */
template <bool kRev>
inline void
gatherWord(bool byte_compare, const uint8_t *const *head,
           const ptrdiff_t *rem, uint64_t w0, size_t first, size_t end,
           uint64_t bits[4])
{
    auto window = [&](size_t a) {
        return a == 0 ? w0 : loadWindow<kRev>(head[a], rem[a]);
    };
#ifdef __SSE2__
    if (byte_compare) {
        for (size_t a = first; a < end; a += 2) {
            const uint64_t hi = a + 1 < end ? window(a + 1) : ~uint64_t(0);
            const __m128i v = _mm_set_epi64x(static_cast<long long>(hi),
                                             static_cast<long long>(window(a)));
            const unsigned shift = unsigned(8 * (a & 7));
            for (unsigned b = 0; b < 4; ++b) {
                const int eq = _mm_movemask_epi8(
                    _mm_cmpeq_epi8(v, _mm_set1_epi8(static_cast<char>(b))));
                bits[b] |= uint64_t(unsigned(eq)) << shift;
            }
        }
        return;
    }
#else
    (void)byte_compare;
#endif
    for (size_t a = first; a < end; ++a) {
        const uint64_t w = window(a);
        const uint64_t b0 = ((w & kLanes) * kPack) >> 56;
        const uint64_t b1 = (((w >> 1) & kLanes) * kPack) >> 56;
        const uint64_t in = ~(((w >> 7) & kLanes) * kPack) >> 56;
        const unsigned shift = unsigned(8 * (a & 7));
        bits[0] |= (~b0 & ~b1 & in) << shift;
        bits[1] |= (b0 & ~b1 & in) << shift;
        bits[2] |= (~b0 & b1 & in) << shift;
        bits[3] |= (b0 & b1 & in) << shift;
    }
}

/** Length of the run over which two reads agree from their heads. */
template <bool kRev>
inline size_t
agreeRun(const uint8_t *a, const uint8_t *b, size_t cap)
{
    if (!kRev)
        return simd::matchRunForward(a, b, cap);
    return simd::matchRunBackward(a + 1 - cap, b + 1 - cap, cap);
}

/**
 * The one-way lookahead-majority scan, for both lenses and every
 * width.
 *
 * Active reads stay compact, in read order, as a lens head pointer
 * plus a remaining-base count; a read that ends drops out. Lane 0 is
 * the first active read.
 *
 *  - Unanimous run: the lanes that agree with lane 0 at each window
 *    position (equality is transitive), ANDed over lanes; the run is
 *    that byte's count of trailing ones. A run that fills the window
 *    continues with 8-byte word compares straight from the reads.
 *  - Votes: a count sums one selected bit of every lane byte with a
 *    multiply; the largest (count << 2 | 3 - b) is the majority with
 *    ties broken to the lowest base. The lookahead votes count only
 *    the lanes that agree with the winner.
 *  - Classification: every read's substitution, insertion and
 *    deletion scores are byte sums (at most 3), compared lane-wise
 *    into an advance of 0, 1 or 2.
 *
 * After a step in which no read ended, the masks shift down instead
 * of being gathered again, as long as they still cover a vote step's
 * kVoteSpan positions: by the common amount when every read moved in
 * step, else lane by lane by each read's own advance. While every
 * read holds more bases than the steps before the next gather can
 * consume, no read can end in between, so the advances wait as
 * per-lane bytes and reach the read cursors once, at that gather.
 */
template <size_t kW, bool kRev>
void
scanCore(const StrandView *reads, size_t n, size_t target_len,
         BmaScratch &scratch, Strand &out)
{
    const size_t width = kW ? kW : (n + 7) / 8;
    // The byte-compare gather is the vector tiers'; Scalar takes the
    // portable one, so forced-scalar runs cover it.
    const bool byte_compare = simd::activeLevel() != simd::Level::Scalar;
    // Rows of one word per 8 reads: M[0..3], the per-lane advances,
    // the padding lanes past the last active read, and the advances
    // not yet applied to head and rem.
    scratch.masks.resize(7 * width);
    auto row = [&](size_t i) { return scratch.masks.data() + i * width; };
    uint64_t *const m[4] = {row(0), row(1), row(2), row(3)};
    uint64_t *const adv = row(4);
    uint64_t *const pad = row(5);
    uint64_t *const pending = row(6);
    std::fill(pending, pending + width, 0);

    scratch.head.resize(n);
    scratch.remaining.resize(n);
    const uint8_t **head = scratch.head.data();
    ptrdiff_t *rem = scratch.remaining.data();
    size_t na = 0;
    for (size_t r = 0; r < n; ++r) {
        const size_t size = reads[r].size();
        if (size == 0)
            continue;
        const auto *p = reinterpret_cast<const uint8_t *>(reads[r].data());
        head[na] = kRev ? p + size - 1 : p;
        rem[na] = ptrdiff_t(size);
        ++na;
    }
    auto setPadding = [&]() {
        for (size_t h = 0; h < width; ++h) {
            const size_t first = 8 * h;
            pad[h] = na >= first + 8 ? 0
                : na <= first        ? ~uint64_t(0)
                                     : ~uint64_t(0) << (8 * (na - first));
        }
    };
    setPadding();

    // Every active read moves by its pending byte plus @p extra, and
    // reads that end drop out; true when none did.
    auto flush = [&](size_t extra) {
        size_t kept = 0;
        for (size_t a = 0; a < na; ++a) {
            const ptrdiff_t s = ptrdiff_t(
                extra + ((pending[a >> 3] >> (8 * (a & 7))) & 0xff));
            const ptrdiff_t left = rem[a] - s;
            head[kept] = kRev ? head[a] - s : head[a] + s;
            rem[kept] = left;
            kept += size_t(left > 0);
        }
        std::fill(pending, pending + width, 0);
        if (kept == na)
            return true;
        na = kept;
        setPadding();
        return false;
    };

    // Window positions the masks still describe; 0 forces a gather.
    size_t known = 0;
    // Set at a gather when every active read holds more than 8 bases,
    // the most the steps until the next gather consume: no read can
    // end before then, so the advances wait in pending.
    bool deferred = false;
    uint64_t w0 = 0; // lane 0's window, for emitting short runs
    // Ends a step that moved every read by @p s, or each by its own
    // advance byte in @p lanes (at most s). The advances wait in
    // pending while deferred and the masks still cover a vote step's
    // span; otherwise they reach the read cursors now. The masks then
    // shift down by the same advances, unless a read ended or the span
    // ran out, which forces a gather. Positions past known stay empty.
    auto afterStep = [&](size_t s, const uint64_t *lanes) {
        bool shift = known >= s + kVoteSpan;
        if (lanes != nullptr)
            for (size_t h = 0; h < width; ++h)
                pending[h] += lanes[h];
        const size_t extra = lanes != nullptr ? 0 : s;
        if (deferred && shift) {
            for (size_t h = 0; h < width; ++h)
                pending[h] += extra * kLanes;
        } else {
            shift = flush(extra) && shift;
        }
        if (!shift) {
            known = 0;
            return;
        }
        known -= s;
        const uint64_t keep = kLanes * (0xffu >> (8 - known));
        if (lanes == nullptr) {
            for (unsigned b = 0; b < 4; ++b)
                for (size_t h = 0; h < width; ++h)
                    m[b][h] = (m[b][h] >> s) & keep;
            w0 >>= 8 * s;
            return;
        }
        for (size_t h = 0; h < width; ++h) {
            const uint64_t one = (lanes[h] & kLanes) * 0xff;
            const uint64_t two = ((lanes[h] >> 1) & kLanes) * 0xff;
            for (unsigned b = 0; b < 4; ++b) {
                const uint64_t x = m[b][h];
                m[b][h] = ((x & ~(one | two)) | ((x >> 1) & one) |
                           ((x >> 2) & two)) & keep;
            }
        }
        w0 >>= 8 * (lanes[0] & 0xff);
    };

    out.resize(target_len);
    Base *o = out.data();
    size_t pos = 0;
    while (pos < target_len) {
        if (na == 0) {
            // All reads exhausted: pad with the last consensus base.
            std::fill(o + pos, o + target_len, pos ? o[pos - 1] : Base::A);
            break;
        }

        if (known == 0) {
            known = 8;
            deferred = *std::min_element(rem, rem + na) > 8;
            w0 = loadWindow<kRev>(head[0], rem[0]);
            for (size_t h = 0; h < width; ++h) {
                // Word h holds reads [8h, end); words past the last
                // active read stay empty.
                const size_t first = std::min(na, 8 * h);
                const size_t end = std::min(na, first + 8);
                uint64_t bits[4] = {0, 0, 0, 0};
                gatherWord<kRev>(byte_compare, head, rem, w0, first, end,
                                 bits);
                for (unsigned b = 0; b < 4; ++b)
                    m[b][h] = bits[b];
            }
        }

        // Unanimous run: the window positions where every lane agrees
        // with lane 0. Positions the masks no longer describe hold no
        // bits, so the run stops at them.
        uint64_t lane0[4];
        for (unsigned b = 0; b < 4; ++b)
            lane0[b] = (m[b][0] & 0xff) * kLanes;
        uint64_t all = ~uint64_t(0);
        for (size_t h = 0; h < width; ++h) {
            uint64_t agree = pad[h];
            for (unsigned b = 0; b < 4; ++b)
                agree |= m[b][h] & lane0[b];
            all &= agree;
        }
        all &= all >> 32;
        all &= all >> 16;
        all &= all >> 8;
        const size_t agreed =
            size_t(__builtin_ctzll((~all & 0xff) | 0x100));
        if (agreed != 0) {
            size_t run = std::min(agreed, target_len - pos);
            if (run == 8 && target_len - pos > 8) {
                // Every read holds 8 more matching bases: extend the
                // run past the window with word compares.
                size_t cap = target_len - pos;
                for (size_t a = 0; a < na; ++a)
                    cap = std::min(cap, size_t(rem[a]));
                size_t ext = cap - 8;
                const uint8_t *h0 = kRev ? head[0] - 8 : head[0] + 8;
                for (size_t a = 1; a < na && ext > 0; ++a)
                    ext = agreeRun<kRev>(kRev ? head[a] - 8 : head[a] + 8,
                                         h0, ext);
                run = 8 + ext;
            }
            if (run <= 8)
                std::memcpy(o + pos, &w0, run);
            else if (!kRev)
                std::memcpy(o + pos, head[0], run);
            else
                std::reverse_copy(head[0] + 1 - run, head[0] + 1,
                                  reinterpret_cast<uint8_t *>(o + pos));
            pos += run;
            afterStep(run, nullptr);
            continue;
        }

        // The majority over the lanes @p select picks for each base.
        auto vote = [&](auto select) {
            size_t best = 0;
            for (unsigned b = 0; b < 4; ++b) {
                size_t count = 0;
                if (kW != 0) {
                    // At most kW per lane byte, 8 * kW <= 64 in all:
                    // the multiply's byte sum cannot carry.
                    uint64_t acc = 0;
                    for (size_t h = 0; h < width; ++h)
                        acc += select(b, h);
                    count = size_t((acc * kLanes) >> 56);
                } else {
                    for (size_t h = 0; h < width; ++h)
                        count += size_t((select(b, h) * kLanes) >> 56);
                }
                best = std::max(best, (count << 2) | (3 - b));
            }
            return best;
        };
        const size_t column =
            vote([&](unsigned b, size_t h) { return m[b][h] & kLanes; });
        const unsigned c = unsigned(3 - (column & 3));
        // Lanes agreeing with the winner, as whole 0xff bytes; they
        // vote the next three consensus bases from window positions
        // 1..3 ("the next two characters are GT in most sequences").
        for (size_t h = 0; h < width; ++h)
            adv[h] = (m[c][h] & kLanes) * 0xff;
        const uint64_t *next[3];
        uint64_t have[3];
        for (size_t wi = 0; wi < 3; ++wi) {
            const size_t best = vote([&](unsigned b, size_t h) {
                return (m[b][h] >> (wi + 1)) & adv[h] & kLanes;
            });
            next[wi] = m[3 - (best & 3)];
            // A lookahead position no agreeing read reaches is no
            // evidence for any hypothesis.
            have[wi] = (best >> 2) != 0 ? ~uint64_t(0) : 0;
        }

        // Figure 2 classification of every lane at once.
        uint64_t uneven = 0;
        for (size_t h = 0; h < width; ++h) {
            const uint64_t n0 = next[0][h] & have[0];
            const uint64_t n1 = next[1][h] & have[1];
            const uint64_t n2 = next[2][h] & have[2];
            // Substitution: the window after the outlier base matches
            // the upcoming consensus.
            const uint64_t sub = ((n0 >> 1) & kLanes) +
                ((n1 >> 2) & kLanes) + ((n2 >> 3) & kLanes);
            // Insertion: c and then the upcoming consensus follow it.
            const uint64_t ins = ((m[c][h] >> 1) & kLanes) +
                ((n0 >> 2) & kLanes) + ((n1 >> 3) & kLanes);
            // Deletion: the outlier base itself starts the upcoming
            // consensus.
            const uint64_t del = (n0 & kLanes) + ((n1 >> 1) & kLanes) +
                ((n2 >> 2) & kLanes);
            const uint64_t is_sub = geBytes(sub, ins) & geBytes(sub, del);
            const uint64_t is_ins = geBytes(ins, del) & ~is_sub;
            const uint64_t agree = adv[h];
            // 1 for agreeing reads and substitutions, 2 for
            // insertions, 0 for deletions.
            adv[h] = (((is_sub >> 7) | (is_ins >> 6)) & ~agree) |
                (agree & kLanes);
            uneven |= (adv[h] ^ kLanes) & ~pad[h];
        }
        o[pos++] = Base(c);
        // Some lane moved by 2 iff its bit 1 is set in uneven.
        if (uneven == 0)
            afterStep(1, nullptr);
        else
            afterStep((uneven & (kLanes << 1)) != 0 ? 2 : 1, adv);
    }
}

template <bool kRev>
void
reconstructCore(const StrandView *reads, size_t n, size_t target_len,
                BmaScratch &scratch, Strand &out)
{
    // The documented cluster-size limit (it dates from packed 16-bit
    // vote counters); real coverages are far below it.
    if (n >= 0xffff)
        throw std::invalid_argument(
            "BMA consensus supports at most 65534 reads per cluster");
    // Up to 16 reads the two mask words are fixed at compile time, so
    // the word loops unroll; larger clusters size them at runtime.
    if (n <= 16)
        scanCore<2, kRev>(reads, n, target_len, scratch, out);
    else
        scanCore<0, kRev>(reads, n, target_len, scratch, out);
}

} // namespace

void
reconstructOneWayInto(const StrandView *reads, size_t n_reads,
                      size_t target_len, BmaScratch &scratch,
                      Strand &out)
{
    reconstructCore<false>(reads, n_reads, target_len, scratch, out);
}

void
reconstructOneWayReversed(const StrandView *reads, size_t n_reads,
                          size_t target_len, BmaScratch &scratch,
                          Strand &out)
{
    reconstructCore<true>(reads, n_reads, target_len, scratch, out);
}

Strand
reconstructOneWay(const std::vector<Strand> &reads, size_t target_len)
{
    static thread_local std::vector<StrandView> views;
    static thread_local BmaScratch scratch;
    views.assign(reads.begin(), reads.end());
    Strand out;
    reconstructCore<false>(views.data(), views.size(), target_len,
                           scratch, out);
    return out;
}

} // namespace dnastore
