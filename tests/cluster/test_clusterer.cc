#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <stdexcept>

#include "channel/ids_channel.hh"
#include "cluster/clusterer.hh"
#include "cluster/greedy.hh"
#include "cluster/stream.hh"
#include "dna/primer.hh"
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

/** @p r with base i flipped to another base at each of @p at. */
Strand
substituted(Strand r, const std::vector<size_t> &at)
{
    for (size_t i : at)
        r[i] = baseFromBits(bitsFromBase(r[i]) ^ 1);
    return r;
}

/**
 * A read's 24 smallest gram hashes: the grams its lookup always uses
 * (frequent ones among them are refilled from the next 8).
 */
std::vector<uint64_t>
querySignature(const Strand &read, size_t qgram)
{
    std::vector<uint64_t> sig;
    cluster_detail::signatureInto(read, qgram,
                                  cluster_detail::kQuerySignatureSize, sig);
    return sig;
}

/** Grams of @p query's signature that @p rep also holds. */
size_t
signatureHits(const Strand &query, const Strand &rep,
              const ClusterParams &params)
{
    const std::vector<uint64_t> sig =
        querySignature(query, params.qgram);
    std::vector<uint64_t> grams;
    cluster_detail::signatureInto(rep, params.qgram, size_t(-1), grams);
    size_t hits = 0;
    for (uint64_t h : sig)
        hits += std::binary_search(grams.begin(), grams.end(), h);
    return hits;
}

/**
 * Positions of @p r ordered by how many of its signature grams cover
 * them, most covered first: substituting the first ones costs a
 * representative the most signature hits, the last ones the fewest.
 */
std::vector<size_t>
positionsByCoverage(const Strand &r, const ClusterParams &params)
{
    const std::vector<uint64_t> sig = querySignature(r, params.qgram);
    std::vector<size_t> cover(r.size(), 0);
    for (size_t p = 0; p + params.qgram <= r.size(); ++p) {
        uint64_t gram = 0;
        for (size_t i = p; i < p + params.qgram; ++i)
            gram = (gram << 2) | bitsFromBase(r[i]);
        if (std::binary_search(sig.begin(), sig.end(),
                               cluster_detail::mixHash(gram)))
            for (size_t i = p; i < p + params.qgram; ++i)
                ++cover[i];
    }
    std::vector<size_t> order(r.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) { return cover[a] > cover[b]; });
    return order;
}

/** Every @p step-th entry of @p from, @p n of them. */
std::vector<size_t>
spaced(const std::vector<size_t> &from, size_t n, size_t step)
{
    std::vector<size_t> out;
    for (size_t i = 0; out.size() < n; i += step)
        out.push_back(from[i]);
    return out;
}

TEST(Clusterer, EquidistantTieIgnoresSignatureHits)
{
    // Candidates are verified likeliest first (most signature hits),
    // but a tie still goes to the earliest cluster. A1 (cluster 5)
    // and A0 (cluster 0) are both 8 substitutions from R; A1's sit
    // where R's signature grams are sparse, A0's where they are
    // dense, so A1 has the most hits and is verified first. Four
    // decoys sharing R's first 84 bases out-rank A0 too, pushing it
    // into a later batch than A1.
    Rng rng(109);
    ClusterParams params;
    params.qgram = 12;
    params.maxDistanceFrac = 0.1; // limit 12 on 120 bases
    const size_t limit = 12;
    const Strand r = randomStrand(120, rng);
    const std::vector<size_t> order = positionsByCoverage(r, params);
    const std::vector<size_t> dense = spaced(order, 8, 3);
    std::vector<size_t> sparse =
        spaced(std::vector<size_t>(order.rbegin(), order.rend()), 8, 3);
    std::vector<Strand> reads{ substituted(r, dense) };
    for (int d = 0; d < 4; ++d) {
        Strand decoy(r.begin(), r.begin() + 84);
        Strand tail = randomStrand(36, rng);
        decoy.insert(decoy.end(), tail.begin(), tail.end());
        reads.push_back(decoy);
    }
    reads.push_back(substituted(r, sparse));
    reads.push_back(r);

    const size_t d = editDistance(r, reads[0]);
    ASSERT_EQ(editDistance(r, reads[5]), d);
    ASSERT_LE(d, limit);
    for (size_t i = 0; i < 6; ++i)
        for (size_t j = i + 1; j < 6; ++j)
            ASSERT_GT(editDistance(reads[i], reads[j]), limit)
                << i << " vs " << j;
    const size_t hits0 = signatureHits(r, reads[0], params);
    ASSERT_GE(hits0, 2u);
    for (size_t i = 1; i < 5; ++i)
        ASSERT_GT(signatureHits(r, reads[i], params), hits0) << i;
    for (size_t i = 1; i < 5; ++i)
        ASSERT_GT(signatureHits(r, reads[5], params),
                  signatureHits(r, reads[i], params))
            << i;
    const Clustering got = clusterReads(reads, params);
    EXPECT_EQ(got.clusterOf,
              (std::vector<size_t>{ 0, 1, 2, 3, 4, 5, 0 }));
}

TEST(Clusterer, CloserCandidateBeatsEarlierFartherOne)
{
    // The other half of the tie rule: a lower cluster id wins only
    // at an equal distance. A0 (cluster 0) is 10 substitutions from
    // R and A1 (cluster 1) is 4, so A1 has more signature hits and
    // is verified first, in the same batch as A0. R must join A1.
    Rng rng(110);
    ClusterParams params;
    params.qgram = 12;
    params.maxDistanceFrac = 0.1; // limit 12 on 120 bases
    const size_t limit = 12;
    const Strand r = randomStrand(120, rng);
    std::vector<size_t> far_at, near_at;
    for (size_t i = 0; i < 10; ++i)
        far_at.push_back(2 + 4 * i);
    for (size_t i = 0; i < 4; ++i)
        near_at.push_back(50 + 20 * i);
    const std::vector<Strand> reads{ substituted(r, far_at),
                                     substituted(r, near_at), r };

    ASSERT_EQ(editDistance(r, reads[0]), 10u);
    ASSERT_EQ(editDistance(r, reads[1]), 4u);
    ASSERT_GT(editDistance(reads[0], reads[1]), limit);
    ASSERT_GE(signatureHits(r, reads[0], params), 2u);
    ASSERT_GT(signatureHits(r, reads[1], params),
              signatureHits(r, reads[0], params));
    const Clustering got = clusterReads(reads, params);
    EXPECT_EQ(got.clusterOf, (std::vector<size_t>{ 0, 1, 1 }));
}

/**
 * Eight representatives framed by one primer pair: random 110-base
 * payloads between 20-base primers (150 bases, join limit 37 at the
 * default fraction). The primers' 12-grams are posted by all eight,
 * which makes them frequent (chain length >= kFrequentMinPostings).
 */
struct PrimerFramed
{
    ClusterParams params;
    PrimerPair primers;
    std::vector<Strand> payloads, reps;
    std::vector<uint64_t> primerGrams; //!< Sorted.
    size_t limit = 0;
};

PrimerFramed
primerFramed()
{
    PrimerFramed set;
    set.params.qgram = 12;
    set.primers = makePrimerPair(7, 20);
    Rng rng(121);
    for (size_t i = 0; i < cluster_detail::kFrequentMinPostings; ++i) {
        set.payloads.push_back(randomStrand(110, rng));
        set.reps.push_back(attachPrimers(set.primers, set.payloads[i]));
    }
    std::vector<uint64_t> grams;
    for (const Strand *primer :
         { &set.primers.forward, &set.primers.backward }) {
        cluster_detail::signatureInto(*primer, 12, size_t(-1), grams);
        set.primerGrams.insert(set.primerGrams.end(), grams.begin(),
                               grams.end());
    }
    std::sort(set.primerGrams.begin(), set.primerGrams.end());
    set.limit = size_t(set.params.maxDistanceFrac * 150.0);
    return set;
}

/** Entries of sorted @p a that sorted @p b also holds. */
std::vector<uint64_t>
common(const std::vector<uint64_t> &a, const std::vector<uint64_t> &b)
{
    std::vector<uint64_t> out;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(out));
    return out;
}

/** Grams @p query shares with @p rep that are not primer grams. */
std::vector<uint64_t>
sharedPayloadGrams(const Strand &query, const Strand &rep,
                   const PrimerFramed &set)
{
    std::vector<uint64_t> q, r, out;
    cluster_detail::signatureInto(query, 12, size_t(-1), q);
    cluster_detail::signatureInto(rep, 12, size_t(-1), r);
    const std::vector<uint64_t> both = common(q, r);
    std::set_difference(both.begin(), both.end(),
                        set.primerGrams.begin(), set.primerGrams.end(),
                        std::back_inserter(out));
    return out;
}

TEST(Clusterer, PrimerVotesAloneNominateNoCandidate)
{
    // The query is R3 with a substitution every 11 payload bases, the
    // first and last payload base included: every 12-gram that
    // touches the payload holds one, so R3 shares only primer grams
    // with it. At least two of those sit in the query's signature.
    // Counted like rare grams they would make all eight
    // representatives candidates, and R3 is within the join limit;
    // as frequent grams they only vote, so the query opens its own
    // cluster.
    const PrimerFramed set = primerFramed();
    std::vector<size_t> at;
    for (size_t p = 0; p < 110; p += 11)
        at.push_back(20 + p);
    at.push_back(20 + 109);
    const Strand query = substituted(set.reps[3], at);

    ASSERT_GE(common(querySignature(query, 12), set.primerGrams).size(),
              2u);
    ASSERT_TRUE(sharedPayloadGrams(query, set.reps[3], set).empty());
    ASSERT_LE(editDistance(query, set.reps[3]), set.limit);
    for (size_t i = 0; i < set.reps.size(); ++i)
        for (size_t j = i + 1; j < set.reps.size(); ++j)
            ASSERT_GT(editDistance(set.reps[i], set.reps[j]), set.limit);

    std::vector<Strand> reads = set.reps;
    reads.push_back(query);
    const Clustering got = clusterReads(reads, set.params);
    EXPECT_EQ(got.clusterOf,
              (std::vector<size_t>{ 0, 1, 2, 3, 4, 5, 6, 7, 8 }));
}

TEST(Clusterer, OneRareHitPlusPrimerVotesJoins)
{
    // The query is R5 with a substitution at most every 11 payload
    // bases except around one clean 12-base window, whose gram is in
    // the query's signature: one rare hit on R5. Alone it could not
    // nominate R5 (two hits are needed), but the primer grams' votes
    // count toward the two, so the query joins R5.
    const PrimerFramed set = primerFramed();
    Strand query;
    bool found = false;
    for (size_t k = 1; k + 12 < 110 && !found; ++k) {
        // Clean payload window [k, k + 12): substitutions at k - 1
        // and k + 12, then every 11 bases outward to both ends.
        std::vector<size_t> at{ 0, 109 };
        for (long p = long(k) - 1; p > 0; p -= 11)
            at.push_back(size_t(p));
        for (size_t p = k + 12; p < 109; p += 11)
            at.push_back(p);
        for (size_t &p : at)
            p += 20;
        query = substituted(set.reps[5], at);
        const std::vector<uint64_t> shared =
            sharedPayloadGrams(query, set.reps[5], set);
        found = shared.size() == 1 &&
            common(querySignature(query, 12), shared).size() == 1;
    }
    ASSERT_TRUE(found);
    ASSERT_GE(common(querySignature(query, 12), set.primerGrams).size(),
              2u);
    ASSERT_LE(editDistance(query, set.reps[5]), set.limit);

    std::vector<Strand> reads = set.reps;
    reads.push_back(query);
    const Clustering got = clusterReads(reads, set.params);
    EXPECT_EQ(got.clusterOf,
              (std::vector<size_t>{ 0, 1, 2, 3, 4, 5, 6, 7, 5 }));
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

TEST(Clusterer, RejectsBadParamsAtConstruction)
{
    // A NaN, non-positive or > 1 distance fraction would reach
    // size_t(maxDistanceFrac * len) in the greedy pass: the engine
    // rejects it before it ingests a read.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (double frac : { nan, inf, -0.25, 0.0, 1.5 }) {
        ClusterParams params;
        params.maxDistanceFrac = frac;
        EXPECT_THROW(StreamingClusterer engine(params),
                     std::invalid_argument)
            << "maxDistanceFrac " << frac;
    }
    ClusterParams ok;
    ok.maxDistanceFrac = 1.0;
    EXPECT_EQ(ok.check(), nullptr);
    EXPECT_NO_THROW(StreamingClusterer engine(ok));
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

TEST(ScoreClustering, RejectsTruthOfAnotherSize)
{
    // Every read needs exactly one truth label: a shorter truth was
    // read past its end, a longer one silently ignored.
    Clustering five;
    five.clusterOf = { 0, 1, 2, 3, 4 };
    five.members = { { 0 }, { 1 }, { 2 }, { 3 }, { 4 } };
    EXPECT_THROW(scoreClustering(five, { 0, 1 }), std::invalid_argument);
    EXPECT_THROW(scoreClustering(five, { 0, 1, 2, 3, 4, 5 }),
                 std::invalid_argument);
    EXPECT_THROW(scoreClustering(five, {}), std::invalid_argument);
    const ClusterQuality q = scoreClustering(five, { 0, 1, 2, 3, 4 });
    EXPECT_DOUBLE_EQ(q.precision, 1.0);
    EXPECT_DOUBLE_EQ(q.recall, 1.0);
}

} // namespace
} // namespace dnastore
