#include <gtest/gtest.h>

#include <algorithm>

#include "dna/packed_strand.hh"
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

TEST(StrandView, AliasesWithoutCopying)
{
    Strand s = strandFromString("ACGTACG");
    StrandView v(s);
    EXPECT_EQ(v.size(), s.size());
    EXPECT_EQ(v.data(), s.data());
    for (size_t i = 0; i < s.size(); ++i)
        EXPECT_EQ(v[i], s[i]);
    EXPECT_EQ(v.toStrand(), s);
}

TEST(StrandView, Equality)
{
    Strand a = strandFromString("ACGT");
    Strand b = strandFromString("ACGT");
    Strand c = strandFromString("ACGA");
    EXPECT_EQ(StrandView(a), StrandView(b));
    EXPECT_NE(StrandView(a), StrandView(c));
    EXPECT_EQ(StrandView(), StrandView());
}

/** @p s packed into packedWordCount(size) words, then unpacked. */
Strand
packRoundTrip(const Strand &s, std::vector<uint64_t> &words)
{
    words.assign(packedWordCount(s.size()), 0);
    packBases(s.data(), s.size(), words.data());
    Strand out(s.size());
    unpackBases(words.data(), s.size(), out.data());
    return out;
}

TEST(PackBases, RoundTripsAllLengthsIncludingOdd)
{
    // Word boundaries are at 32 bases; cover lengths around them and
    // every small odd length.
    Rng rng(1);
    std::vector<uint64_t> words;
    for (size_t len : { 0u,  1u,  2u,  3u,  5u,  7u,  31u, 32u,
                        33u, 63u, 64u, 65u, 100u, 455u, 1024u }) {
        Strand s = randomStrand(len, rng);
        EXPECT_EQ(packRoundTrip(s, words), s) << "len " << len;
        // Fields past the last base stay zero.
        if (len % 32 != 0) {
            EXPECT_EQ(words.back() >> (2 * (len % 32)), 0u)
                << "len " << len;
        }
    }
}

TEST(PackBases, RoundTripsHomopolymerRuns)
{
    std::vector<uint64_t> words;
    for (Base b : { Base::A, Base::C, Base::G, Base::T }) {
        Strand s(97, b); // odd length, single-base run
        EXPECT_EQ(packRoundTrip(s, words), s);
    }
}

TEST(PackBases, RandomAccessMatchesUnpack)
{
    // Base i is the 2-bit field i % 32 of word i / 32, low bits first.
    Rng rng(2);
    Strand s = randomStrand(77, rng);
    std::vector<uint64_t> words;
    packRoundTrip(s, words);
    for (size_t i = 0; i < s.size(); ++i)
        EXPECT_EQ(baseFromBits(unsigned(
                      (words[i >> 5] >> ((i & 31) * 2)) & 3)),
                  s[i]);
}

TEST(PackBases, UsesTwoBitsPerBase)
{
    EXPECT_EQ(packedWordCount(320), 10u); // 320 bases / 32 per word
    EXPECT_EQ(packedWordCount(321), 11u);
    EXPECT_EQ(packedWordCount(0), 0u);
}

TEST(PackBases, OverwritesEveryWord)
{
    // packBases assigns whole words, so stale contents never leak.
    Rng rng(3);
    Strand s = randomStrand(50, rng);
    std::vector<uint64_t> words(packedWordCount(s.size()), ~uint64_t(0));
    packBases(s.data(), s.size(), words.data());
    Strand out(s.size());
    unpackBases(words.data(), s.size(), out.data());
    EXPECT_EQ(out, s);
}

TEST(StrandArena, AppendAndViewRoundTrip)
{
    Rng rng(4);
    std::vector<Strand> strands;
    StrandArena arena;
    for (size_t len : { 10u, 0u, 33u, 7u }) {
        strands.push_back(randomStrand(len, rng));
        arena.append(strands.back());
    }
    ASSERT_EQ(arena.strandCount(), strands.size());
    for (size_t i = 0; i < strands.size(); ++i)
        EXPECT_EQ(arena.view(i).toStrand(), strands[i]);
}

TEST(StrandArena, InPlaceBuildMatchesAppend)
{
    Strand s = strandFromString("GATTACA");
    StrandArena a, b;
    a.append(s);
    std::copy(s.begin(), s.end(), b.appendUninitialized(s.size()));
    EXPECT_EQ(a.view(0), b.view(0));
}

TEST(StrandArena, ClearKeepsNothing)
{
    StrandArena arena;
    arena.append(strandFromString("ACGT"));
    arena.clear();
    EXPECT_EQ(arena.strandCount(), 0u);
    EXPECT_EQ(arena.totalBases(), 0u);
}

TEST(StrandArena, StrandsAreContiguous)
{
    StrandArena arena;
    arena.append(strandFromString("AC"));
    arena.append(strandFromString("GT"));
    // The second strand starts exactly where the first ended.
    EXPECT_EQ(arena.view(0).data() + 2, arena.view(1).data());
}

TEST(PackedArena, RoundTripsMixedLengths)
{
    Rng rng(5);
    std::vector<Strand> strands;
    PackedArena arena;
    for (size_t len : { 31u, 32u, 33u, 0u, 455u, 1u }) {
        strands.push_back(randomStrand(len, rng));
        arena.append(strands.back());
    }
    ASSERT_EQ(arena.strandCount(), strands.size());
    Strand out;
    for (size_t i = 0; i < strands.size(); ++i) {
        EXPECT_EQ(arena.size(i), strands[i].size());
        arena.unpackInto(i, out);
        EXPECT_EQ(out, strands[i]);
    }
}

TEST(PackedArena, UnpacksIntoStrandArena)
{
    Rng rng(6);
    Strand a = randomStrand(40, rng);
    Strand b = randomStrand(21, rng);
    PackedArena packed;
    packed.append(a);
    packed.append(b);
    StrandArena flat;
    packed.unpackInto(1, flat);
    packed.unpackInto(0, flat);
    EXPECT_EQ(flat.view(0).toStrand(), b);
    EXPECT_EQ(flat.view(1).toStrand(), a);
}

TEST(ReadBatch, GroupsViewsByCluster)
{
    Rng rng(7);
    Strand a = randomStrand(10, rng);
    Strand b = randomStrand(11, rng);
    Strand c = randomStrand(12, rng);
    ReadBatch batch;
    batch.offsets.push_back(0);
    batch.views.push_back(a);
    batch.views.push_back(b);
    batch.offsets.push_back(2);
    batch.offsets.push_back(2); // empty cluster
    batch.views.push_back(c);
    batch.offsets.push_back(3);

    ASSERT_EQ(batch.clusters(), 3u);
    EXPECT_EQ(batch.clusterSize(0), 2u);
    EXPECT_EQ(batch.clusterSize(1), 0u);
    EXPECT_EQ(batch.clusterSize(2), 1u);
    EXPECT_EQ(batch.cluster(0)[1].toStrand(), b);
    EXPECT_EQ(batch.cluster(2)[0].toStrand(), c);
}

} // namespace
} // namespace dnastore
