#include <gtest/gtest.h>

#include "dna/primer.hh"

namespace dnastore {
namespace {

TEST(Primer, DeterministicPerKey)
{
    auto a = makePrimerPair(7, 20);
    auto b = makePrimerPair(7, 20);
    EXPECT_EQ(a.forward, b.forward);
    EXPECT_EQ(a.backward, b.backward);
}

TEST(Primer, DistinctKeysGetDistinctPrimers)
{
    auto a = makePrimerPair(1, 20);
    auto b = makePrimerPair(2, 20);
    EXPECT_NE(a.forward, b.forward);
}

TEST(Primer, SatisfiesBiochemicalConstraints)
{
    for (uint64_t key = 0; key < 32; ++key) {
        auto pair = makePrimerPair(key, 20);
        for (const Strand *p : { &pair.forward, &pair.backward }) {
            EXPECT_EQ(p->size(), 20u);
            EXPECT_GE(gcContent(*p), 0.4);
            EXPECT_LE(gcContent(*p), 0.6);
            EXPECT_LE(maxHomopolymerRun(*p), 3u);
        }
    }
}

TEST(Primer, AttachFramesPayload)
{
    auto pair = makePrimerPair(3, 20);
    auto payload = strandFromString("ACGTACGTACGTACGTACGT");
    Strand expected = pair.forward;
    expected.insert(expected.end(), payload.begin(), payload.end());
    expected.insert(expected.end(), pair.backward.begin(),
                    pair.backward.end());
    EXPECT_EQ(attachPrimers(pair, payload), expected);
}

} // namespace
} // namespace dnastore
