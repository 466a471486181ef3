#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <string>

#include "ecc/rs.hh"
#include "util/rng.hh"

namespace dnastore {
namespace {

/**
 * Independent algebra for the Reed-Solomon kernel: schoolbook
 * polynomial arithmetic with gf.mul only, no tables and no shortcuts.
 * The codeword polynomial puts data position i at degree E + i and
 * parity position k + j at degree j, so c(x) = d(x) x^E + p(x).
 */

/** g(x) = prod_{i=1}^{E} (x - alpha^i), coefficients low-first. */
std::vector<uint32_t>
naiveGenerator(const GaloisField &gf, size_t parity)
{
    std::vector<uint32_t> g{ 1 };
    for (size_t i = 1; i <= parity; ++i) {
        std::vector<uint32_t> next(g.size() + 1, 0);
        for (size_t t = 0; t < g.size(); ++t) {
            next[t] ^= gf.mul(g[t], gf.alphaPow(i));
            next[t + 1] ^= g[t];
        }
        g = next;
    }
    return g;
}

/** p(x) = d(x) x^E mod g(x) by long division, highest degree first. */
std::vector<uint32_t>
naiveParity(const GaloisField &gf, const std::vector<uint32_t> &g,
            const std::vector<uint32_t> &data, size_t parity)
{
    std::vector<uint32_t> a(parity + data.size(), 0);
    for (size_t i = 0; i < data.size(); ++i)
        a[parity + i] = data[i];
    for (size_t deg = a.size(); deg-- > parity;) {
        const uint32_t f = a[deg];
        for (size_t j = 0; j <= parity; ++j)
            a[deg - parity + j] ^= gf.mul(f, g[j]);
    }
    return { a.begin(), a.begin() + std::ptrdiff_t(parity) };
}

/** True iff c(alpha^j) == 0 for j = 1..E, each by direct Horner. */
bool
naiveIsCodeword(const GaloisField &gf, const std::vector<uint32_t> &cw,
                size_t parity)
{
    const size_t k = cw.size() - parity;
    for (size_t j = 1; j <= parity; ++j) {
        const uint32_t x = gf.alphaPow(j);
        uint32_t acc = 0;
        for (size_t deg = cw.size(); deg-- > 0;) {
            const uint32_t c = deg < parity ? cw[k + deg] : cw[deg - parity];
            acc = gf.mul(acc, x) ^ c;
        }
        if (acc != 0)
            return false;
    }
    return true;
}

/** @p count distinct random positions in [0, n), in draw order. */
std::vector<size_t>
distinctPositions(size_t count, size_t n, Rng &rng)
{
    std::set<size_t> picked;
    std::vector<size_t> out;
    while (out.size() < count) {
        size_t pos = size_t(rng.nextBelow(n));
        if (picked.insert(pos).second)
            out.push_back(pos);
    }
    return out;
}

struct OracleCase
{
    unsigned m;
    size_t parity;
    int words;
};

std::vector<OracleCase>
oracleCases()
{
    Rng rng(0x0dac1e);
    std::vector<OracleCase> cases;
    for (unsigned m : { 3u, 8u, 10u, 16u }) {
        const size_t n = (size_t(1) << m) - 1;
        const int words = m == 16 ? 2 : 6;
        cases.push_back({ m, 1, words });
        cases.push_back({ m, 2, words });
        // Random parity; kept small at m 16 so the naive
        // O(n * E) oracle stays fast.
        const size_t hi = m == 16 ? 40 : n - 2;
        cases.push_back({ m, 3 + size_t(rng.nextBelow(hi - 2)), words });
        if (m <= 8)
            cases.push_back({ m, n - 1, words });
        if (m == 10)
            cases.push_back({ m, 188, words });
    }
    return cases;
}

TEST(RsOracle, EncodeAndIsCodewordMatchNaiveAlgebra)
{
    Rng rng(77);
    for (const OracleCase &c : oracleCases()) {
        GaloisField gf(c.m);
        ReedSolomon rs(gf, c.parity);
        const auto g = naiveGenerator(gf, c.parity);
        for (int w = 0; w < c.words; ++w) {
            SCOPED_TRACE("m=" + std::to_string(c.m) +
                         " E=" + std::to_string(c.parity) +
                         " word=" + std::to_string(w));
            std::vector<uint32_t> data(rs.k());
            for (auto &d : data)
                d = uint32_t(rng.nextBelow(gf.size()));
            const auto cw = rs.encode(data);
            ASSERT_EQ(cw.size(), rs.n());
            const auto parity = naiveParity(gf, g, data, c.parity);
            ASSERT_TRUE(std::equal(data.begin(), data.end(), cw.begin()));
            ASSERT_TRUE(std::equal(parity.begin(), parity.end(),
                                   cw.begin() + std::ptrdiff_t(rs.k())));
            ASSERT_TRUE(naiveIsCodeword(gf, cw, c.parity));
            EXPECT_TRUE(rs.isCodeword(cw));

            // Corrupt 1, 2, capacity, capacity + 1 and far beyond
            // symbols (capped at n) and ask both sides again.
            for (size_t n_err : { size_t(1), size_t(2), c.parity / 2,
                                  c.parity / 2 + 1, c.parity + 3 }) {
                n_err = std::min(n_err, rs.n());
                auto noisy = cw;
                for (size_t pos : distinctPositions(n_err, rs.n(), rng))
                    noisy[pos] ^=
                        1 + uint32_t(rng.nextBelow(gf.order()));
                EXPECT_EQ(rs.isCodeword(noisy),
                          naiveIsCodeword(gf, noisy, c.parity))
                    << n_err << " errors";
            }
        }
    }
}

TEST(RsOracle, DecodeMatchesNaiveAlgebraFromCleanToBeyondCapacity)
{
    Rng rng(78);
    RsScratch scratch;
    for (const OracleCase &c : oracleCases()) {
        GaloisField gf(c.m);
        ReedSolomon rs(gf, c.parity);
        for (int w = 0; w < 2 * c.words; ++w) {
            std::vector<uint32_t> data(rs.k());
            for (auto &d : data)
                d = uint32_t(rng.nextBelow(gf.size()));
            const auto clean = rs.encode(data);

            // 0 .. beyond-capacity mixes: erasures in [0, E], errors
            // up to E / 2 + 2.
            const size_t n_era = size_t(rng.nextBelow(c.parity + 1));
            const size_t n_err = std::min(
                rs.n() - n_era,
                size_t(rng.nextBelow(c.parity / 2 + 3)));
            auto noisy = clean;
            auto touched = distinctPositions(n_era + n_err, rs.n(), rng);
            for (size_t i = 0; i < touched.size(); ++i) {
                // Erased symbols may keep their value; errors may not.
                noisy[touched[i]] ^= uint32_t(rng.nextBelow(gf.size())) |
                    (i < n_era ? 0u : 1u);
            }
            std::vector<size_t> erasures(touched.begin(),
                                         touched.begin() +
                                             std::ptrdiff_t(n_era));
            const auto before = noisy;
            const RsDecodeResult r = rs.decode(noisy, erasures, scratch);
            SCOPED_TRACE("m=" + std::to_string(c.m) +
                         " E=" + std::to_string(c.parity) +
                         " err=" + std::to_string(n_err) +
                         " era=" + std::to_string(n_era));
            if (2 * n_err + n_era <= c.parity) {
                ASSERT_TRUE(r.success);
                EXPECT_EQ(noisy, clean);
                EXPECT_EQ(r.erasuresCorrected, n_era);
                EXPECT_EQ(r.errorsCorrected, n_err);
            } else if (r.success) {
                EXPECT_TRUE(naiveIsCodeword(gf, noisy, c.parity));
            } else {
                EXPECT_EQ(noisy, before);
            }
        }
    }
}

/** FNV-1a over a decoded buffer. */
uint64_t
bufferHash(const std::vector<uint32_t> &v)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (uint32_t x : v) {
        for (int b = 0; b < 4; ++b) {
            h ^= (x >> (8 * b)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

struct PinnedOutcome
{
    bool success;
    size_t errors;
    size_t erasures;
    uint64_t hash;
};

TEST(RsOracle, DecodeOutcomesMatchPinnedBatch)
{
    // Benchmark-scale code (m 10, E 188): a fixed-seed batch of words
    // from clean to beyond capacity, pinned from the scalar-LFSR,
    // n-length-syndrome codec. Decoding must never drift from it.
    const PinnedOutcome kPinned[] = {
        { true, 0, 0, 0x40fb424fe70d86a5ULL },
        { true, 69, 9, 0xb6f7b90fa7400102ULL },
        { true, 51, 1, 0xeccdc65103784744ULL },
        { true, 5, 51, 0x8a61bf83016341ccULL },
        { true, 2, 0, 0x3387b3d77e8d478eULL },
        { true, 39, 34, 0x5d7d2df70cb09414ULL },
        { true, 7, 38, 0x3402d2879a5eb0afULL },
        { true, 24, 11, 0xa524d388d46e62a8ULL },
        { true, 44, 45, 0x08f3b3e077c34bd8ULL },
        { true, 53, 19, 0xcf1ffa390a06be60ULL },
        { true, 3, 67, 0xa66b1ab8a185f179ULL },
        { false, 0, 0, 0x2948b8d10e88311cULL },
        { true, 53, 17, 0x942f10317acd0588ULL },
        { false, 0, 0, 0x116fc207c528d120ULL },
        { true, 19, 76, 0x2c9ce7270f97888bULL },
        { true, 33, 18, 0xbfc1ff31f331f6e4ULL },
        { false, 0, 0, 0x427c467e786ccd7eULL },
        { true, 16, 51, 0x3803ac66404ade7dULL },
        { true, 46, 75, 0xf2e1f7403581cc98ULL },
        { true, 50, 39, 0x8c8975c93c298aafULL },
        { true, 15, 73, 0x470ed58e2e200255ULL },
        { false, 0, 0, 0xa68619ab33816fa7ULL },
        { true, 6, 68, 0xe4bb8cd2a204f9a9ULL },
        { true, 22, 49, 0xeeb5b15ebff2e5d2ULL },
        { false, 0, 0, 0x0329d755427649b5ULL },
        { true, 13, 0, 0x93bddbb1726a4868ULL },
        { false, 0, 0, 0x30b48cd2b7e6dd30ULL },
        { true, 73, 18, 0x1068224f204ae2b3ULL },
        { true, 61, 65, 0x9653b58b3384fabeULL },
        { false, 0, 0, 0xe72db507a68c6a6bULL },
        { true, 12, 42, 0x648d521a0ad1f292ULL },
        { false, 0, 0, 0x9d03c6440d0fb34cULL },
    };
    GaloisField gf(10);
    ReedSolomon rs(gf, 188);
    Rng rng(0x5eed);
    RsScratch scratch;
    for (size_t w = 0; w < std::size(kPinned); ++w) {
        std::vector<uint32_t> data(rs.k());
        for (auto &d : data)
            d = uint32_t(rng.nextBelow(gf.size()));
        auto cw = rs.encode(data);
        const size_t n_era = w == 0 ? 0 : size_t(rng.nextBelow(80));
        const size_t n_err = w == 0 ? 0 : size_t(rng.nextBelow(100));
        auto touched = distinctPositions(n_era + n_err, rs.n(), rng);
        for (size_t pos : touched)
            cw[pos] ^= 1 + uint32_t(rng.nextBelow(gf.order()));
        std::vector<size_t> erasures(
            touched.begin(), touched.begin() + std::ptrdiff_t(n_era));
        const RsDecodeResult r = rs.decode(cw, erasures, scratch);
        const PinnedOutcome got{ r.success, r.errorsCorrected,
                                 r.erasuresCorrected, bufferHash(cw) };
        const PinnedOutcome &want = kPinned[w];
        EXPECT_EQ(got.success, want.success) << "word " << w;
        EXPECT_EQ(got.errors, want.errors) << "word " << w;
        EXPECT_EQ(got.erasures, want.erasures) << "word " << w;
        EXPECT_EQ(got.hash, want.hash) << "word " << w;
    }
}

} // namespace
} // namespace dnastore
