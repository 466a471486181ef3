/**
 * @file
 * Frozen reference for the one-way BMA consensus: the per-read,
 * three-walk lookahead-majority core the library shipped before its
 * bit-parallel rewrite, kept verbatim in behaviour with plain loops
 * (no simd:: kernels) so the differential suites can check the
 * library core against it byte for byte on every tier.
 */

#ifndef DNASTORE_TESTS_CONSENSUS_BMA_REFERENCE_HH
#define DNASTORE_TESTS_CONSENSUS_BMA_REFERENCE_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "dna/packed_strand.hh"
#include "dna/strand.hh"

namespace dnastore {
namespace bma_reference {

/** Majority base among the given votes; ties break to the lowest. */
inline int
majority(const std::array<uint32_t, kNumBases> &votes)
{
    int best = 0;
    for (int b = 1; b < kNumBases; ++b)
        if (votes[size_t(b)] > votes[size_t(best)])
            best = b;
    return best;
}

/** Lookahead window used to classify an outlier's error type. */
constexpr size_t kWindow = 3;

/** Base @p i of read @p r, optionally through a reversing lens. */
inline Base
readAt(const StrandView &r, size_t i, bool rev)
{
    return rev ? r[r.size() - 1 - i] : r[i];
}

/**
 * One-way reconstruction of @p target_len bases from @p n reads,
 * left to right (@p rev false) or through a reversing lens.
 */
inline Strand
oneWay(const StrandView *reads, size_t n, size_t target_len, bool rev)
{
    std::vector<size_t> cursor(n, 0);
    Strand out;
    out.reserve(target_len);
    Base last_consensus = Base::A;
    size_t pos = 0;
    while (pos < target_len) {
        // Unanimity probe over the active reads.
        size_t first = n;
        bool unanimous = true;
        Base c = Base::A;
        for (size_t r = 0; r < n; ++r) {
            if (cursor[r] >= reads[r].size())
                continue;
            Base b = readAt(reads[r], cursor[r], rev);
            if (first == n) {
                first = r;
                c = b;
            } else if (b != c) {
                unanimous = false;
                break;
            }
        }

        if (first == n) {
            // All reads exhausted: pad with the last consensus base.
            out.push_back(last_consensus);
            ++pos;
            continue;
        }

        if (unanimous) {
            // The unanimous run: as far as every active read keeps
            // matching the first one, capped by every read's end.
            size_t run = target_len - pos;
            for (size_t r = first; r < n; ++r) {
                if (cursor[r] < reads[r].size())
                    run = std::min(run, reads[r].size() - cursor[r]);
            }
            const StrandView &read0 = reads[first];
            for (size_t r = first + 1; r < n && run > 1; ++r) {
                if (cursor[r] >= reads[r].size())
                    continue;
                size_t i = 0;
                while (i < run &&
                       readAt(reads[r], cursor[r] + i, rev) ==
                           readAt(read0, cursor[first] + i, rev))
                    ++i;
                run = i;
            }
            for (size_t i = 0; i < run; ++i)
                out.push_back(readAt(read0, cursor[first] + i, rev));
            for (size_t r = first; r < n; ++r) {
                if (cursor[r] < reads[r].size())
                    cursor[r] += run;
            }
            last_consensus = out.back();
            pos += run;
            continue;
        }

        // Vote path: each active read's next 8 bases, one per byte.
        std::vector<uint8_t> column;
        std::vector<uint64_t> window;
        std::vector<uint8_t> wlen;
        std::vector<size_t> aread;
        for (size_t r = 0; r < n; ++r) {
            size_t cur = cursor[r];
            if (cur >= reads[r].size())
                continue;
            size_t rem = reads[r].size() - cur;
            size_t len = std::min<size_t>(rem, 8);
            uint64_t w = 0;
            for (size_t i = 0; i < len; ++i)
                w |= uint64_t(readAt(reads[r], cur + i, rev)) << (8 * i);
            column.push_back(uint8_t(w & 0xff));
            window.push_back(w);
            wlen.push_back(uint8_t(len));
            aread.push_back(r);
        }
        const size_t active = column.size();

        std::array<uint32_t, kNumBases> votes{};
        for (size_t a = 0; a < active; ++a)
            ++votes[column[a]];
        c = baseFromBits(unsigned(majority(votes)));
        const uint8_t c_byte = uint8_t(c);

        // The next kWindow consensus bases, voted by the reads that
        // agree at the current position.
        std::array<std::array<uint32_t, kNumBases>, kWindow> nv{};
        std::array<uint32_t, kWindow> voters{};
        for (size_t a = 0; a < active; ++a) {
            if (column[a] != c_byte)
                continue;
            for (size_t wi = 0; wi < kWindow; ++wi) {
                if (wi + 1 >= wlen[a])
                    continue;
                ++nv[wi][(window[a] >> (8 * (wi + 1))) & 0xff];
                ++voters[wi];
            }
        }
        std::array<Base, kWindow> next{};
        std::array<bool, kWindow> have_next{};
        for (size_t w = 0; w < kWindow; ++w) {
            have_next[w] = voters[w] > 0;
            next[w] = baseFromBits(unsigned(majority(nv[w])));
        }

        // Figure 2 classification of every outlier read.
        for (size_t a = 0; a < active; ++a) {
            const size_t r = aread[a];
            const size_t cur = cursor[r];
            if (column[a] == c_byte) {
                cursor[r] = cur + 1;
                continue;
            }
            const uint64_t w = window[a];
            const size_t len = wlen[a];
            auto at = [w, len](size_t off, Base expect) -> int {
                return int(off < len) &
                    int(uint8_t((w >> (8 * off)) & 0xff) ==
                        uint8_t(expect));
            };
            int score_sub = 0;
            int score_ins = at(1, c);
            int score_del = 0;
            for (size_t wi = 0; wi < kWindow; ++wi) {
                const int have = int(have_next[wi]);
                score_sub += have & at(1 + wi, next[wi]);
                if (wi + 1 < kWindow)
                    score_ins += have & at(2 + wi, next[wi]);
                score_del += have & at(wi, next[wi]);
            }
            if (score_sub >= score_ins && score_sub >= score_del) {
                cursor[r] = cur + 1; // substitution
            } else if (score_ins >= score_del) {
                cursor[r] = cur + 2; // insertion: skip it, consume c
            } else {
                // deletion: c is missing from the read; keep cursor.
            }
        }
        out.push_back(c);
        last_consensus = c;
        ++pos;
    }
    return out;
}

/**
 * Two-sided reference: the forward estimate's first half joined to
 * the backward estimate's second half, as reconstructTwoSidedInto
 * combines them.
 */
inline Strand
twoSided(const StrandView *reads, size_t n, size_t target_len)
{
    const size_t half = target_len / 2;
    Strand fwd = oneWay(reads, n, half, false);
    Strand bwd = oneWay(reads, n, target_len - half, true);
    Strand out(fwd.begin(), fwd.end());
    for (size_t i = half; i < target_len; ++i)
        out.push_back(bwd[target_len - 1 - i]);
    return out;
}

} // namespace bma_reference
} // namespace dnastore

#endif // DNASTORE_TESTS_CONSENSUS_BMA_REFERENCE_HH
