#include <gtest/gtest.h>

#include <algorithm>

#include "dna/strand.hh"
#include "util/rng.hh"

namespace dnastore {
namespace {

Strand
randomStrand(size_t len, Rng &rng)
{
    Strand s(len);
    for (auto &b : s)
        b = baseFromBits(unsigned(rng.nextBelow(4)));
    return s;
}

/** Textbook full-matrix Levenshtein, the reference for the rolling DP. */
size_t
editDistanceFullMatrix(const Strand &a, const Strand &b)
{
    const size_t n = a.size(), m = b.size();
    std::vector<size_t> dist((n + 1) * (m + 1));
    auto at = [m](size_t i, size_t j) { return i * (m + 1) + j; };
    for (size_t i = 0; i <= n; ++i)
        dist[at(i, 0)] = i;
    for (size_t j = 0; j <= m; ++j)
        dist[at(0, j)] = j;
    for (size_t i = 1; i <= n; ++i) {
        for (size_t j = 1; j <= m; ++j) {
            size_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
            dist[at(i, j)] = std::min({ dist[at(i - 1, j)] + 1,
                                        dist[at(i, j - 1)] + 1,
                                        dist[at(i - 1, j - 1)] + cost });
        }
    }
    return dist[at(n, m)];
}

TEST(Strand, StringRoundTrip)
{
    const std::string s = "ACGTACGTACGT";
    EXPECT_EQ(strandToString(strandFromString(s)), s);
}

TEST(Strand, FromStringRejectsInvalid)
{
    EXPECT_THROW(strandFromString("ACGN"), std::invalid_argument);
}

TEST(Strand, Reversed)
{
    EXPECT_EQ(strandToString(reversed(strandFromString("ACGT"))), "TGCA");
}

TEST(Strand, GcContent)
{
    EXPECT_DOUBLE_EQ(gcContent(strandFromString("GCGC")), 1.0);
    EXPECT_DOUBLE_EQ(gcContent(strandFromString("ATAT")), 0.0);
    EXPECT_DOUBLE_EQ(gcContent(strandFromString("ACGT")), 0.5);
    EXPECT_DOUBLE_EQ(gcContent(Strand{}), 0.0);
}

TEST(Strand, MaxHomopolymerRun)
{
    EXPECT_EQ(maxHomopolymerRun(Strand{}), 0u);
    EXPECT_EQ(maxHomopolymerRun(strandFromString("ACGT")), 1u);
    EXPECT_EQ(maxHomopolymerRun(strandFromString("AAACGGT")), 3u);
    EXPECT_EQ(maxHomopolymerRun(strandFromString("CTTTT")), 4u);
}

TEST(Strand, EditDistanceBasics)
{
    auto a = strandFromString("ACGT");
    EXPECT_EQ(editDistance(a, a), 0u);
    EXPECT_EQ(editDistance(a, strandFromString("AGGT")), 1u); // sub
    EXPECT_EQ(editDistance(a, strandFromString("ACGTT")), 1u); // ins
    EXPECT_EQ(editDistance(a, strandFromString("AGT")), 1u); // del
    EXPECT_EQ(editDistance(a, Strand{}), 4u);
    EXPECT_EQ(editDistance(Strand{}, a), 4u);
}

TEST(Strand, EditDistanceIsSymmetric)
{
    auto a = strandFromString("ACGTACGTACG");
    auto b = strandFromString("ACTTAGGTAG");
    EXPECT_EQ(editDistance(a, b), editDistance(b, a));
}

TEST(Strand, EditDistanceTriangleInequality)
{
    auto a = strandFromString("ACGTAC");
    auto b = strandFromString("GGTTAA");
    auto c = strandFromString("ACGGTA");
    EXPECT_LE(editDistance(a, b),
              editDistance(a, c) + editDistance(c, b));
}

TEST(Strand, EditDistanceMatchesFullMatrixReference)
{
    // The rolling-row DP must agree with the full matrix on random
    // pairs of every shape, including very unequal lengths (which
    // exercises the roll-along-the-shorter-side swap).
    Rng rng(0xed17);
    for (int trial = 0; trial < 300; ++trial) {
        size_t la = size_t(rng.nextBelow(200));
        size_t lb = size_t(rng.nextBelow(200));
        auto a = randomStrand(la, rng);
        auto b = randomStrand(lb, rng);
        ASSERT_EQ(editDistance(a, b), editDistanceFullMatrix(a, b))
            << "lengths " << la << " x " << lb;
    }
}

TEST(Strand, EditDistanceWordBoundaryLengths)
{
    // The bit-parallel DP advances 64 rows per word; lengths around
    // the block boundaries exercise carry propagation and the partial
    // last block.
    Rng rng(0xed19);
    for (size_t len : { 1u, 63u, 64u, 65u, 127u, 128u, 129u, 192u }) {
        auto a = randomStrand(len, rng);
        auto b = randomStrand(len + rng.nextBelow(4), rng);
        ASSERT_EQ(editDistance(a, b), editDistanceFullMatrix(a, b))
            << "len " << len;
        // Similar strands (small true distance) and identical ones.
        auto c = a;
        if (!c.empty())
            c[c.size() / 2] = complement(c[c.size() / 2]);
        ASSERT_EQ(editDistance(a, c), editDistanceFullMatrix(a, c));
        ASSERT_EQ(editDistance(a, a), 0u);
    }
}

TEST(Strand, EditDistanceLongStrands)
{
    Rng rng(0xed18);
    auto a = randomStrand(455, rng);
    auto b = randomStrand(461, rng);
    EXPECT_EQ(editDistance(a, b), editDistanceFullMatrix(a, b));
    EXPECT_EQ(editDistanceRange(a.data(), a.size(), b.data(), b.size()),
              editDistance(a, b));
}

TEST(Strand, ReversalsMatchNaiveOnRandomStrands)
{
    Rng rng(0x5e7);
    for (size_t len : { 0u, 1u, 2u, 33u, 100u }) {
        auto s = randomStrand(len, rng);
        Strand rev(s.rbegin(), s.rend());
        EXPECT_EQ(reversed(s), rev);
    }
}

TEST(Strand, HammingDistance)
{
    auto a = strandFromString("ACGT");
    EXPECT_EQ(hammingDistance(a, a), 0u);
    EXPECT_EQ(hammingDistance(a, strandFromString("ACGA")), 1u);
    EXPECT_EQ(hammingDistance(a, strandFromString("TGCA")), 4u);
}

} // namespace
} // namespace dnastore
