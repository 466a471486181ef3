#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "dna/packed_strand.hh"
#include "dna/strand.hh"
#include "fuzz_iters.hh"
#include "util/rng.hh"
#include "util/simd.hh"

namespace dnastore {
namespace {

/**
 * myersBatch is checked against a plain reference on random inputs,
 * on every dispatch tier the host supports — the bit-identical
 * contract behind DNASTORE_FORCE_SCALAR.
 */
class SimdKernels : public ::testing::TestWithParam<simd::Level>
{
  public:
    void
    SetUp() override
    {
        entry_ = simd::activeLevel();
        if (simd::setLevel(GetParam()) != GetParam())
            GTEST_SKIP() << "tier " << simd::levelName(GetParam())
                         << " not supported on this host";
    }

    void TearDown() override { simd::setLevel(entry_); }

  private:
    simd::Level entry_ = simd::Level::Scalar;
};

TEST(MatchRun, MatchesReference)
{
    // Lengths span the 8-byte word loop and its byte tail; mismatches
    // land anywhere, or nowhere.
    Rng rng(2);
    for (int iter = 0; iter < fuzzIters(300); ++iter) {
        size_t n = rng.nextBelow(150);
        std::vector<uint8_t> a(n), b(n);
        for (size_t i = 0; i < n; ++i)
            a[i] = b[i] = uint8_t(rng.nextBelow(4));
        // Sprinkle a few mismatches (sometimes none).
        for (size_t e = 0; e < rng.nextBelow(4) && n > 0; ++e)
            b[rng.nextBelow(n)] ^= 1;

        size_t fwd = 0;
        while (fwd < n && a[fwd] == b[fwd])
            ++fwd;
        size_t bwd = 0;
        while (bwd < n && a[n - 1 - bwd] == b[n - 1 - bwd])
            ++bwd;

        EXPECT_EQ(simd::matchRunForward(a.data(), b.data(), n), fwd);
        EXPECT_EQ(simd::matchRunBackward(a.data(), b.data(), n), bwd);
    }
}

/** Full-matrix Levenshtein reference: no band, no early exit. */
size_t
referenceEditDistance(const Strand &a, const Strand &b)
{
    std::vector<size_t> prev(b.size() + 1), cur(b.size() + 1);
    for (size_t j = 0; j <= b.size(); ++j)
        prev[j] = j;
    for (size_t i = 1; i <= a.size(); ++i) {
        cur[0] = i;
        for (size_t j = 1; j <= b.size(); ++j) {
            size_t best = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
            best = std::min(best, prev[j] + 1);
            best = std::min(best, cur[j - 1] + 1);
            cur[j] = best;
        }
        std::swap(prev, cur);
    }
    return prev[b.size()];
}

/** The bounded contract: d when d <= limit, else limit + 1. */
uint32_t
bounded(size_t d, size_t limit)
{
    return uint32_t(d <= limit ? d : limit + 1);
}

Strand
randomStrand(size_t len, Rng &rng)
{
    Strand s(len);
    for (auto &x : s)
        x = baseFromBits(unsigned(rng.nextBelow(4)));
    return s;
}

/** @p s with @p edits random substitutions, deletions, insertions. */
Strand
mutate(const Strand &s, size_t edits, Rng &rng)
{
    Strand out = s;
    for (size_t e = 0; e < edits; ++e) {
        size_t pos = out.empty() ? 0 : rng.nextBelow(out.size());
        switch (rng.nextBelow(3)) {
          case 0:
            if (!out.empty())
                out[pos] = baseFromBits(bitsFromBase(out[pos]) ^ 1);
            break;
          case 1:
            if (!out.empty())
                out.erase(out.begin() + long(pos));
            break;
          default:
            out.insert(out.begin() + long(pos),
                       baseFromBits(unsigned(rng.nextBelow(4))));
        }
    }
    return out;
}

/** The lengths around the 64-row block edges, and a read's. */
const size_t kEdgeLengths[] = { 63, 64, 65, 127, 128, 129, 450 };

/**
 * editDistanceBatch of @p pattern against @p texts at @p limit must
 * equal the bounded reference for every text.
 */
void
expectBatchBounded(const Strand &pattern, const std::vector<Strand> &texts,
                   const std::vector<size_t> &exact, size_t limit)
{
    std::vector<StrandView> views(texts.begin(), texts.end());
    std::vector<uint32_t> dists(texts.size(), 0xdeadbeefu);
    editDistanceBatch(pattern.data(), pattern.size(), views.data(),
                      views.size(), limit, dists.data());
    for (size_t i = 0; i < texts.size(); ++i)
        EXPECT_EQ(dists[i], bounded(exact[i], limit))
            << "m " << pattern.size() << " n " << texts[i].size()
            << " limit " << limit << " text " << i << " of "
            << texts.size();
}

TEST_P(SimdKernels, EditDistanceBatchMatchesPairwise)
{
    // Mutated copies, unrelated strands (the abort path) and empty
    // texts, at block-edge lengths, against limits from 0 to past
    // every length; k spans partial and multiple groups of four.
    Rng rng(4);
    for (int iter = 0; iter < fuzzIters(60); ++iter) {
        const size_t m = iter % 2 == 0
            ? kEdgeLengths[rng.nextBelow(7)]
            : 1 + rng.nextBelow(180);
        const Strand pattern = randomStrand(m, rng);

        const size_t k = 1 + rng.nextBelow(9);
        std::vector<Strand> texts;
        for (size_t i = 0; i < k; ++i) {
            switch (rng.nextBelow(4)) {
              case 0:
                texts.push_back(randomStrand(
                    rng.nextBelow(2) ? kEdgeLengths[rng.nextBelow(7)]
                                     : rng.nextBelow(220),
                    rng));
                break;
              case 1:
                texts.push_back(Strand());
                break;
              default:
                texts.push_back(
                    mutate(pattern, rng.nextBelow(m / 4 + 2), rng));
            }
        }
        std::vector<size_t> exact;
        size_t longest = m;
        for (const Strand &t : texts) {
            exact.push_back(referenceEditDistance(pattern, t));
            longest = std::max(longest, t.size());
        }
        for (size_t limit :
             { size_t(0), size_t(1), size_t(rng.nextBelow(longest + 1)),
               exact[0], exact[0] == 0 ? size_t(0) : exact[0] - 1,
               longest, size_t(-1) })
            expectBatchBounded(pattern, texts, exact, limit);
        // Unbounded results are exactly editDistance, too.
        std::vector<StrandView> views(texts.begin(), texts.end());
        std::vector<uint32_t> dists(k);
        editDistanceBatch(pattern.data(), m, views.data(), k, longest,
                          dists.data());
        for (size_t i = 0; i < k; ++i)
            EXPECT_EQ(dists[i], editDistance(pattern, texts[i]));
    }
}

TEST_P(SimdKernels, EditDistanceBatchBoundaryCases)
{
    Rng rng(6);
    for (size_t m : kEdgeLengths) {
        SCOPED_TRACE("m " + std::to_string(m));
        const Strand pattern = randomStrand(m, rng);
        for (size_t limit : { size_t(0), size_t(1), size_t(7),
                              size_t(m / 4) }) {
            // Length gaps of exactly limit (exact: pure insertions)
            // and limit + 1 (the early out).
            Strand exact_gap = pattern;
            for (size_t g = 0; g < limit; ++g)
                exact_gap.push_back(Base::A);
            Strand over_gap = exact_gap;
            over_gap.push_back(Base::C);
            Strand short_gap(pattern.begin() + long(limit + 1),
                             pattern.end());
            // Planted substitutions, then the copy's true distance d
            // checked at limit d and limit d - 1.
            Strand planted = mutate(pattern, limit + 1, rng);
            std::vector<Strand> texts = { exact_gap, over_gap, short_gap,
                                          planted,
                                          randomStrand(m, rng) };
            std::vector<size_t> exact;
            for (const Strand &t : texts)
                exact.push_back(referenceEditDistance(pattern, t));
            EXPECT_EQ(exact[0], limit);
            expectBatchBounded(pattern, texts, exact, limit);
            const size_t d = exact[3];
            expectBatchBounded(pattern, texts, exact, d);
            if (d > 0)
                expectBatchBounded(pattern, texts, exact, d - 1);
        }
    }
}

/**
 * A copy of @p pattern whose cheapest alignment runs along diagonal
 * -s (@p top) or +s at cost @p t: s random bases inserted in front
 * and t - s bases cut from the end, or s bases cut from the front and
 * t - s random bases appended. Either way s is the band's edge at
 * limit t, and the distance is t unless the random bases happen to
 * match.
 */
Strand
edgeCopy(const Strand &pattern, size_t s, size_t t, bool top, Rng &rng)
{
    const size_t m = pattern.size();
    Strand out = randomStrand(top ? s : 0, rng);
    const size_t from = top ? 0 : s, cut = top ? t - s : s;
    out.insert(out.end(), pattern.begin() + long(from),
               pattern.begin() + long(m - (top ? cut : 0)));
    const Strand tail = randomStrand(top ? 0 : t - s, rng);
    out.insert(out.end(), tail.begin(), tail.end());
    return out;
}

TEST_P(SimdKernels, EditDistanceBatchBandEdges)
{
    // Ukkonen's band at limit t spans t or t + 1 rows, so limits 58 to
    // 66 cross the one-word kernel's 64-row edge. Each group of four
    // mixes length gaps from -t to t, and edge copies put the only
    // path within t on the band's first or last diagonal. Lengths
    // below 64 keep the virtual rows above row 1 inside the band to
    // the last column, and texts that share only a 20-base prefix
    // with the pattern reach the abort after it.
    Rng rng(9);
    for (size_t t = 58; t <= 66; ++t) {
        for (int iter = 0; iter < fuzzIters(8); ++iter) {
            const size_t m = iter % 2 == 0 ? 1 + rng.nextBelow(63)
                                           : 64 + rng.nextBelow(400);
            const Strand pattern = randomStrand(m, rng);
            std::vector<Strand> texts;
            for (size_t i = 0; i < 8; ++i) {
                const ptrdiff_t gap =
                    ptrdiff_t(rng.nextBelow(2 * t + 1)) - ptrdiff_t(t);
                const size_t n = size_t(std::max<ptrdiff_t>(
                    1, ptrdiff_t(m) - gap));
                Strand text;
                switch (i % 4) {
                  case 0:
                    // Unrelated, or the pattern's first 20 bases and
                    // then noise.
                    text = randomStrand(n, rng);
                    if (i == 4)
                        std::copy_n(pattern.begin(),
                                    std::min({ m, n, size_t(20) }),
                                    text.begin());
                    break;
                  case 1: { // top edge: s <= t, t - s <= m
                    const size_t s_min = t > m ? t - m : 0;
                    text = edgeCopy(pattern,
                                    s_min + rng.nextBelow(t - s_min + 1),
                                    t, true, rng);
                    break;
                  }
                  case 2: // bottom edge: s <= min(m, t)
                    text = edgeCopy(pattern,
                                    rng.nextBelow(std::min(m, t) + 1), t,
                                    false, rng);
                    break;
                  default: { // a noisy copy cut or padded to n
                    text = mutate(pattern, rng.nextBelow(t / 2 + 1), rng);
                    const Strand pad = randomStrand(n, rng);
                    text.resize(n);
                    for (size_t p = m; p < n; ++p)
                        text[p] = pad[p];
                  }
                }
                texts.push_back(text);
            }
            std::vector<size_t> exact;
            for (const Strand &text : texts)
                exact.push_back(referenceEditDistance(pattern, text));
            expectBatchBounded(pattern, texts, exact, t);
            // At a text's own distance, the band's edge is its path.
            const size_t own = exact[rng.nextBelow(texts.size())];
            if (own >= 58 && own <= 66)
                expectBatchBounded(pattern, texts, exact, own);
        }
    }
}

TEST_P(SimdKernels, EditDistanceBatchEdges)
{
    Rng rng(7);
    // Past the limit the result is limit + 1, never more or less.
    const Strand a = randomStrand(60, rng), b = randomStrand(60, rng);
    const size_t ab = referenceEditDistance(a, b);
    ASSERT_GT(ab, 5u);
    StrandView bv(b);
    uint32_t dist = 0;
    editDistanceBatch(a.data(), a.size(), &bv, 1, 5, &dist);
    EXPECT_EQ(dist, 6u);
    // A length gap past the limit short-circuits.
    const Strand longer = randomStrand(100, rng);
    const Strand shorter = randomStrand(10, rng);
    StrandView sv(shorter);
    editDistanceBatch(longer.data(), longer.size(), &sv, 1, 20, &dist);
    EXPECT_EQ(dist, 21u);
    // Empty strands: the distance is the other length.
    const Strand c = randomStrand(12, rng), empty;
    StrandView cv(c), ev(empty);
    editDistanceBatch(nullptr, 0, &cv, 1, 20, &dist);
    EXPECT_EQ(dist, 12u);
    editDistanceBatch(nullptr, 0, &cv, 1, 11, &dist);
    EXPECT_EQ(dist, 12u);
    editDistanceBatch(nullptr, 0, &cv, 1, 3, &dist);
    EXPECT_EQ(dist, 4u);
    editDistanceBatch(c.data(), c.size(), &ev, 1, 20, &dist);
    EXPECT_EQ(dist, 12u);
    editDistanceBatch(c.data(), c.size(), &ev, 1, 3, &dist);
    EXPECT_EQ(dist, 4u);
    editDistanceBatch(nullptr, 0, &ev, 1, 0, &dist);
    EXPECT_EQ(dist, 0u);
    // Limit 0 bands to the main diagonal alone: one substitution
    // scores 1 at limit 1 and limit + 1 at limit 0.
    Strand d = c;
    d[5] = baseFromBits(bitsFromBase(d[5]) ^ 2);
    StrandView dv(d);
    editDistanceBatch(c.data(), c.size(), &dv, 1, 1, &dist);
    EXPECT_EQ(dist, 1u);
    editDistanceBatch(c.data(), c.size(), &dv, 1, 0, &dist);
    EXPECT_EQ(dist, 1u);
    editDistanceBatch(c.data(), c.size(), &cv, 1, 0, &dist);
    EXPECT_EQ(dist, 0u);
}

/** myersMasks of @p pattern. */
std::vector<uint64_t>
masksOf(const Strand &pattern)
{
    std::vector<uint64_t> peq(simd::myersMaskWords(pattern.size()));
    simd::myersMasks(reinterpret_cast<const uint8_t *>(pattern.data()),
                     pattern.size(), peq.data());
    return peq;
}

TEST_P(SimdKernels, MyersMasksMatchTheirLayout)
{
    // Per base: a zero word, row i at bit (i - 1) & 63 of word
    // 1 + (i - 1) / 64, a zero word; lengths around the 16-row
    // compares and the word edges.
    Rng rng(8);
    for (size_t m : { size_t(1), size_t(15), size_t(16), size_t(17),
                      size_t(63), size_t(64), size_t(65), size_t(200),
                      size_t(455) }) {
        const Strand pattern = randomStrand(m, rng);
        const size_t stride = (m + 63) / 64 + 2;
        std::vector<uint64_t> want(size_t(kNumBases) * stride, 0);
        for (size_t i = 0; i < m; ++i)
            want[size_t(bitsFromBase(pattern[i])) * stride + 1 +
                 (i >> 6)] |= uint64_t(1) << (i & 63);
        ASSERT_EQ(simd::myersMaskWords(m), want.size());
        // Stale words from a longer pattern must not survive.
        std::vector<uint64_t> got(want.size(), ~uint64_t(0));
        simd::myersMasks(reinterpret_cast<const uint8_t *>(pattern.data()),
                         m, got.data());
        EXPECT_EQ(got, want) << "m " << m;
    }
}

TEST_P(SimdKernels, MyersBatchFillsEveryLaneBeyondFour)
{
    // The clusterer passes groups of four; any other k, above four
    // too, must fill all of dists[0..k), on every tier and at every
    // limit.
    Rng rng(5);
    for (size_t m : { size_t(90), size_t(129), size_t(450) }) {
        const Strand pattern = randomStrand(m, rng);
        const std::vector<uint64_t> peq = masksOf(pattern);

        for (size_t k : { size_t(5), size_t(7), size_t(9) }) {
            std::vector<Strand> store;
            for (size_t i = 0; i < k; ++i)
                store.push_back(i % 2 == 0
                    ? mutate(pattern, rng.nextBelow(m / 3), rng)
                    : randomStrand(rng.nextBelow(m + 60), rng));
            std::vector<const uint8_t *> ptrs;
            std::vector<size_t> lens, exact;
            for (const auto &t : store) {
                ptrs.push_back(
                    reinterpret_cast<const uint8_t *>(t.data()));
                lens.push_back(t.size());
                exact.push_back(referenceEditDistance(pattern, t));
            }
            for (size_t limit : { size_t(0), size_t(1),
                                  size_t(rng.nextBelow(m)), m + 60 }) {
                std::vector<uint32_t> dists(k, 0xdeadbeefu);
                simd::myersBatch(peq.data(), m, ptrs.data(), lens.data(),
                                 k, limit, dists.data());
                for (size_t i = 0; i < k; ++i)
                    EXPECT_EQ(dists[i], bounded(exact[i], limit))
                        << "m " << m << " k " << k << " text " << i
                        << " limit " << limit;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Tiers, SimdKernels,
                         ::testing::Values(simd::Level::Scalar,
                                           simd::Level::Avx2),
                         [](const auto &info) {
                             return std::string(
                                 simd::levelName(info.param));
                         });

TEST(SimdDispatch, LevelsReportNamesAndScalarIsAlwaysReachable)
{
    EXPECT_STREQ(simd::levelName(simd::Level::Scalar), "scalar");
    EXPECT_STREQ(simd::levelName(simd::Level::Avx2), "avx2");
    const simd::Level entry = simd::activeLevel();
    EXPECT_EQ(simd::setLevel(simd::Level::Scalar), simd::Level::Scalar);
    EXPECT_EQ(simd::activeLevel(), simd::Level::Scalar);
    // Avx2 is granted or clamped to Scalar, and reported as selected.
    const simd::Level got = simd::setLevel(simd::Level::Avx2);
    EXPECT_EQ(simd::activeLevel(), got);
    simd::setLevel(entry);
}

} // namespace
} // namespace dnastore
