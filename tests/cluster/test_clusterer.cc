#include <gtest/gtest.h>

#include <stdexcept>

#include "channel/ids_channel.hh"
#include "cluster/clusterer.hh"
#include "fuzz_iters.hh"
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

TEST(Clusterer, SerialAndParallelAreBitIdentical)
{
    Rng rng(105);
    IdsChannel channel(ErrorModel::uniform(0.07));
    std::vector<Strand> reads;
    for (size_t s = 0; s < 60; ++s) {
        Strand original = randomStrand(110, rng);
        for (size_t c = 0; c < 8; ++c)
            reads.push_back(channel.transmit(original, rng));
    }

    for (size_t shards : { size_t(0), size_t(1), size_t(4),
                           size_t(13) }) {
        SCOPED_TRACE("shards " + std::to_string(shards));
        ClusterParams serial;
        serial.numShards = shards;
        serial.numThreads = 1;
        Clustering base = clusterReads(reads, serial);
        for (size_t threads : { size_t(2), size_t(8), size_t(0) }) {
            SCOPED_TRACE("threads " + std::to_string(threads));
            ClusterParams par = serial;
            par.numThreads = threads;
            Clustering got = clusterReads(reads, par);
            EXPECT_EQ(got.clusterOf, base.clusterOf);
            EXPECT_EQ(got.members, base.members);
        }
    }
}

TEST(Clusterer, ShardedModeKeepsQuality)
{
    Rng rng(106);
    IdsChannel channel(ErrorModel::uniform(0.05));
    std::vector<Strand> reads;
    std::vector<size_t> truth;
    for (size_t s = 0; s < 40; ++s) {
        Strand original = randomStrand(120, rng);
        for (size_t c = 0; c < 6; ++c) {
            reads.push_back(channel.transmit(original, rng));
            truth.push_back(s);
        }
    }
    ClusterParams params;
    params.numShards = 8;
    params.numThreads = 4;
    auto quality = scoreClustering(clusterReads(reads, params), truth);
    EXPECT_GT(quality.precision, 0.99);
    EXPECT_GT(quality.recall, 0.93);
}

TEST(Clusterer, SignatureSizeUpTo24ClustersIdentically)
{
    // A read queries the index with its max(signatureSize, 24)
    // smallest gram hashes, so 1, the default 4, and 24 are one
    // clustering.
    Rng rng(107);
    IdsChannel channel(ErrorModel::uniform(0.08));
    std::vector<Strand> reads;
    for (size_t s = 0; s < 30; ++s) {
        Strand original = randomStrand(100, rng);
        for (size_t c = 0; c < 5; ++c)
            reads.push_back(channel.transmit(original, rng));
    }
    ClusterParams base;
    base.signatureSize = 4;
    const Clustering expected = clusterReads(reads, base);
    for (size_t size : { size_t(1), size_t(24) }) {
        ClusterParams params = base;
        params.signatureSize = size;
        const Clustering got = clusterReads(reads, params);
        EXPECT_EQ(got.clusterOf, expected.clusterOf) << "size " << size;
        EXPECT_EQ(got.members, expected.members) << "size " << size;
    }
}

TEST(Clusterer, EquidistantReadJoinsEarliestCluster)
{
    // R is a palindrome; A0 is R with substitutions in its left half
    // and A5 = reversed(A0), so edit distance's reversal symmetry
    // makes R exactly equidistant from both. Four decoys sharing R's
    // left half sit between them, so A5 is verified in a later batch
    // than A0. The earliest cluster must win the tie.
    Rng rng(108);
    Strand r = randomStrand(60, rng);
    const Strand left = r;
    r.insert(r.end(), left.rbegin(), left.rend());
    Strand a0 = r;
    for (size_t pos = 3; pos < 60; pos += 7)
        a0[pos] = baseFromBits(bitsFromBase(a0[pos]) ^ 1);
    std::vector<Strand> reads{ a0 };
    for (int d = 0; d < 4; ++d) {
        Strand decoy = left;
        Strand tail = randomStrand(60, rng);
        decoy.insert(decoy.end(), tail.begin(), tail.end());
        reads.push_back(decoy);
    }
    reads.push_back(reversed(a0));
    reads.push_back(r);

    ClusterParams params;
    params.maxDistanceFrac = 0.1; // limit 12 on 120 bases
    const size_t limit = 12;
    ASSERT_EQ(editDistance(r, reads[0]), editDistance(r, reads[5]));
    ASSERT_LE(editDistance(r, reads[0]), limit);
    for (size_t i = 0; i < 6; ++i)
        for (size_t j = i + 1; j < 6; ++j)
            ASSERT_GT(editDistance(reads[i], reads[j]), limit)
                << i << " vs " << j;
    const Clustering got = clusterReads(reads, params);
    EXPECT_EQ(got.clusterOf,
              (std::vector<size_t>{ 0, 1, 2, 3, 4, 5, 0 }));
}

TEST(Clusterer, RejectsOutOfRangeQgram)
{
    // qgram >= 32 would overflow the 64-bit signature hash shift;
    // qgram 0 hashes every position identically.
    Rng rng(9);
    std::vector<Strand> reads{ randomStrand(100, rng) };
    for (size_t qgram : { size_t(0), size_t(32), size_t(100) }) {
        ClusterParams params;
        params.qgram = qgram;
        EXPECT_THROW(clusterReads(reads, params),
                     std::invalid_argument)
            << "qgram " << qgram;
    }
    ClusterParams ok;
    ok.qgram = 31;
    EXPECT_EQ(clusterReads(reads, ok).count(), 1u);
}

TEST(Clusterer, IdenticalReadsFormOneCluster)
{
    Rng rng(4);
    auto s = randomStrand(100, rng);
    std::vector<Strand> reads(8, s);
    auto clustering = clusterReads(reads);
    EXPECT_EQ(clustering.count(), 1u);
    for (size_t c : clustering.clusterOf)
        EXPECT_EQ(c, 0u);
}

TEST(Clusterer, WellSeparatedStrandsSeparate)
{
    Rng rng(5);
    std::vector<Strand> reads;
    std::vector<size_t> truth;
    const size_t n_strands = 20, copies = 6;
    IdsChannel channel(ErrorModel::uniform(0.05));
    for (size_t s = 0; s < n_strands; ++s) {
        auto original = randomStrand(120, rng);
        for (size_t c = 0; c < copies; ++c) {
            reads.push_back(channel.transmit(original, rng));
            truth.push_back(s);
        }
    }
    auto clustering = clusterReads(reads);
    auto quality = scoreClustering(clustering, truth);
    EXPECT_GT(quality.precision, 0.99);
    EXPECT_GT(quality.recall, 0.95);
}

TEST(Clusterer, ToleratesHighErrorRates)
{
    Rng rng(6);
    std::vector<Strand> reads;
    std::vector<size_t> truth;
    IdsChannel channel(ErrorModel::uniform(0.10));
    for (size_t s = 0; s < 10; ++s) {
        auto original = randomStrand(150, rng);
        for (size_t c = 0; c < 8; ++c) {
            reads.push_back(channel.transmit(original, rng));
            truth.push_back(s);
        }
    }
    auto clustering = clusterReads(reads);
    auto quality = scoreClustering(clustering, truth);
    EXPECT_GT(quality.precision, 0.97);
    EXPECT_GT(quality.recall, 0.80);
}

TEST(Clusterer, InterleavedReadOrder)
{
    // Reads arriving interleaved across strands must still cluster.
    Rng rng(7);
    const size_t n_strands = 12, copies = 5;
    std::vector<Strand> originals;
    for (size_t s = 0; s < n_strands; ++s)
        originals.push_back(randomStrand(100, rng));
    IdsChannel channel(ErrorModel::uniform(0.06));
    std::vector<Strand> reads;
    std::vector<size_t> truth;
    for (size_t c = 0; c < copies; ++c) {
        for (size_t s = 0; s < n_strands; ++s) {
            reads.push_back(channel.transmit(originals[s], rng));
            truth.push_back(s);
        }
    }
    auto quality = scoreClustering(clusterReads(reads), truth);
    EXPECT_GT(quality.precision, 0.99);
    EXPECT_GT(quality.recall, 0.90);
}

TEST(Clusterer, EmptyInput)
{
    auto clustering = clusterReads({});
    EXPECT_EQ(clustering.count(), 0u);
    EXPECT_TRUE(clustering.clusterOf.empty());
}

/** The old all-pairs scorer, kept as the fuzz reference. */
ClusterQuality
referenceScore(const Clustering &clustering,
               const std::vector<size_t> &truth)
{
    const auto &pred = clustering.clusterOf;
    size_t same_pred = 0, same_truth = 0, same_both = 0;
    for (size_t i = 0; i < pred.size(); ++i) {
        for (size_t j = i + 1; j < pred.size(); ++j) {
            bool p = pred[i] == pred[j];
            bool t = truth[i] == truth[j];
            same_pred += p;
            same_truth += t;
            same_both += p && t;
        }
    }
    ClusterQuality q;
    q.precision =
        same_pred ? double(same_both) / double(same_pred) : 1.0;
    q.recall =
        same_truth ? double(same_both) / double(same_truth) : 1.0;
    return q;
}

TEST(ScoreClusteringFuzz, MatchesAllPairsReference)
{
    // The sort-based contingency counter must agree with the O(n^2)
    // pairwise loop exactly — same integer pair counts, so the
    // resulting doubles are bit-equal, not merely close.
    Rng rng(401);
    for (int iter = 0; iter < fuzzIters(60); ++iter) {
        size_t n = 1 + rng.nextBelow(120);
        size_t pred_labels = 1 + rng.nextBelow(12);
        size_t truth_labels = 1 + rng.nextBelow(12);
        Clustering c;
        std::vector<size_t> truth(n);
        c.clusterOf.resize(n);
        for (size_t i = 0; i < n; ++i) {
            c.clusterOf[i] = rng.nextBelow(pred_labels);
            truth[i] = rng.nextBelow(truth_labels);
        }
        ClusterQuality fast = scoreClustering(c, truth);
        ClusterQuality slow = referenceScore(c, truth);
        EXPECT_DOUBLE_EQ(fast.precision, slow.precision)
            << "iter " << iter;
        EXPECT_DOUBLE_EQ(fast.recall, slow.recall) << "iter " << iter;
    }
}

TEST(ScoreClustering, PerfectAndDegenerate)
{
    Clustering perfect;
    perfect.clusterOf = { 0, 0, 1, 1 };
    perfect.members = { { 0, 1 }, { 2, 3 } };
    auto q = scoreClustering(perfect, { 0, 0, 1, 1 });
    EXPECT_DOUBLE_EQ(q.precision, 1.0);
    EXPECT_DOUBLE_EQ(q.recall, 1.0);

    Clustering lumped;
    lumped.clusterOf = { 0, 0, 0, 0 };
    lumped.members = { { 0, 1, 2, 3 } };
    q = scoreClustering(lumped, { 0, 0, 1, 1 });
    EXPECT_NEAR(q.precision, 2.0 / 6.0, 1e-12);
    EXPECT_DOUBLE_EQ(q.recall, 1.0);
}

} // namespace
} // namespace dnastore
