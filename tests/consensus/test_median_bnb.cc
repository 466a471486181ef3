#include <gtest/gtest.h>

#include <algorithm>

#include "consensus/median_bnb.hh"
#include "util/rng.hh"

namespace dnastore {
namespace {

/** Sum of edit distances from @p s to every trace (full DP rows). */
size_t
medianCost(const Seq &s, const std::vector<Seq> &traces)
{
    size_t sum = 0;
    for (const Seq &t : traces) {
        const size_t n = s.size(), m = t.size();
        std::vector<size_t> row(m + 1);
        for (size_t j = 0; j <= m; ++j)
            row[j] = j;
        for (size_t i = 1; i <= n; ++i) {
            size_t diag = row[0];
            row[0] = i;
            for (size_t j = 1; j <= m; ++j) {
                size_t cost = (s[i - 1] == t[j - 1]) ? 0 : 1;
                size_t val = std::min({ row[j] + 1, row[j - 1] + 1,
                                        diag + cost });
                diag = row[j];
                row[j] = val;
            }
        }
        sum += row[m];
    }
    return sum;
}

/** Exhaustive reference search over all sigma^L strings. */
MedianResult
bruteForceMedian(const std::vector<Seq> &traces, size_t len,
                 unsigned sigma)
{
    MedianResult ref;
    ref.cost = size_t(-1);
    size_t total = 1;
    for (size_t i = 0; i < len; ++i)
        total *= sigma;
    for (size_t code = 0; code < total; ++code) {
        Seq s(len);
        size_t c = code;
        for (size_t i = 0; i < len; ++i) {
            s[i] = uint8_t(c % sigma);
            c /= sigma;
        }
        size_t cost = medianCost(s, traces);
        if (cost < ref.cost) {
            ref.cost = cost;
            ref.optima.clear();
        }
        if (cost == ref.cost)
            ref.optima.push_back(s);
    }
    return ref;
}

Seq
randomSeq(size_t len, unsigned sigma, Rng &rng)
{
    Seq s(len);
    for (auto &c : s)
        c = uint8_t(rng.nextBelow(sigma));
    return s;
}

Seq
distort(const Seq &s, double p, unsigned sigma, Rng &rng)
{
    Seq out;
    for (uint8_t c : s) {
        double u = rng.nextDouble();
        if (u < p / 3) {
            out.push_back(uint8_t(rng.nextBelow(sigma)));
            out.push_back(c);
        } else if (u < 2 * p / 3) {
            // deleted
        } else if (u < p) {
            out.push_back(uint8_t((c + 1 + rng.nextBelow(sigma - 1)) %
                                  sigma));
        } else {
            out.push_back(c);
        }
    }
    return out;
}

TEST(MedianBnb, ExactTracesHaveZeroCostMedian)
{
    Seq s{ 0, 1, 1, 0, 1, 0, 0, 1 };
    std::vector<Seq> traces(3, s);
    auto result = constrainedMedian(traces, s.size(), 2);
    EXPECT_EQ(result.cost, 0u);
    ASSERT_EQ(result.optima.size(), 1u);
    EXPECT_EQ(result.optima[0], s);
}

TEST(MedianBnb, MatchesBruteForceOnRandomInstances)
{
    Rng rng(42);
    for (int iter = 0; iter < 15; ++iter) {
        const size_t len = 8;
        Seq original = randomSeq(len, 2, rng);
        std::vector<Seq> traces;
        for (int r = 0; r < 3; ++r)
            traces.push_back(distort(original, 0.25, 2, rng));
        auto fast = constrainedMedian(traces, len, 2);
        auto ref = bruteForceMedian(traces, len, 2);
        EXPECT_EQ(fast.cost, ref.cost);
        ASSERT_EQ(fast.optima.size(), ref.optima.size());
        // Enumeration orders differ; compare as sets.
        std::sort(fast.optima.begin(), fast.optima.end());
        std::sort(ref.optima.begin(), ref.optima.end());
        EXPECT_EQ(fast.optima, ref.optima);
    }
}

TEST(MedianBnb, MatchesBruteForceQuaternary)
{
    Rng rng(43);
    for (int iter = 0; iter < 5; ++iter) {
        const size_t len = 5;
        Seq original = randomSeq(len, 4, rng);
        std::vector<Seq> traces;
        for (int r = 0; r < 3; ++r)
            traces.push_back(distort(original, 0.3, 4, rng));
        auto fast = constrainedMedian(traces, len, 4);
        auto ref = bruteForceMedian(traces, len, 4);
        EXPECT_EQ(fast.cost, ref.cost);
        std::sort(fast.optima.begin(), fast.optima.end());
        std::sort(ref.optima.begin(), ref.optima.end());
        EXPECT_EQ(fast.optima, ref.optima);
    }
}

TEST(MedianBnb, OptimaCapIsHonored)
{
    // With an empty trace of length L and a single empty input, every
    // string ties; the cap must kick in.
    std::vector<Seq> traces{ Seq{} };
    auto result = constrainedMedian(traces, 6, 2, 8);
    EXPECT_EQ(result.cost, 6u);
    EXPECT_EQ(result.optima.size(), 8u);
    EXPECT_TRUE(result.capped);
}

TEST(MedianBnb, RejectsBadAlphabet)
{
    std::vector<Seq> traces{ Seq{ 0, 2 } };
    EXPECT_THROW(constrainedMedian(traces, 2, 2), std::invalid_argument);
    EXPECT_THROW(constrainedMedian({}, 2, 1), std::invalid_argument);
}

TEST(MedianBnb, HighCoverageRecoversOriginal)
{
    Rng rng(44);
    const size_t len = 14;
    Seq original = randomSeq(len, 2, rng);
    std::vector<Seq> traces;
    for (int r = 0; r < 16; ++r)
        traces.push_back(distort(original, 0.15, 2, rng));
    auto result = constrainedMedian(traces, len, 2);
    auto picked = adversarialPick(result.optima, original);
    size_t wrong = 0;
    for (size_t i = 0; i < len; ++i)
        wrong += (picked[i] != original[i]);
    EXPECT_LE(wrong, 2u);
}

TEST(AdversarialPick, PrefersMiddleAccuracy)
{
    // Two candidates, both distance 2 from the original conceptually:
    // one wrong at the ends, one wrong in the middle. The adversarial
    // pick must choose the one wrong at the ENDS (accurate middle).
    Seq original{ 0, 0, 0, 0, 0, 0, 0, 0 };
    Seq wrong_ends{ 1, 0, 0, 0, 0, 0, 0, 1 };
    Seq wrong_mid{ 0, 0, 0, 1, 1, 0, 0, 0 };
    auto picked = adversarialPick({ wrong_mid, wrong_ends }, original);
    EXPECT_EQ(picked, wrong_ends);
}

TEST(AdversarialPick, EmptyCandidateListRejected)
{
    EXPECT_THROW(adversarialPick({}, Seq{ 0 }), std::invalid_argument);
}

} // namespace
} // namespace dnastore
