#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "channel/ids_channel.hh"
#include "cluster/gather_reference.hh"
#include "cluster/gram_index.hh"
#include "cluster/greedy.hh"
#include "dna/primer.hh"
#include "fuzz_iters.hh"
#include "pipeline/config.hh"
#include "util/rng.hh"

namespace dnastore {
namespace {

/**
 * Differential suite: GreedyState's candidate gather, which counts
 * frequent chains in place and stops below the lowest nominee, against
 * the frozen sort-everything gather (gather_reference.hh), candidate
 * list for candidate list, before every read a state consumes. States
 * are driven like StreamingClusterer drives them: shard passes that
 * consume() reads, then a merge that consumeGroup()s every shard
 * cluster into a reset state.
 */

using cluster_detail::GreedyState;

Strand
randomStrand(size_t len, Rng &rng)
{
    Strand s(len);
    for (auto &b : s)
        b = baseFromBits(unsigned(rng.nextBelow(4)));
    return s;
}

/** Noisy copies of random originals, interleaved, optionally primed. */
std::vector<Strand>
makeSoup(size_t n_strands, size_t copies, size_t min_len, size_t spread,
         double error, Rng &rng, const PrimerPair *primers)
{
    IdsChannel channel(ErrorModel::uniform(error));
    std::vector<Strand> originals;
    for (size_t s = 0; s < n_strands; ++s) {
        originals.push_back(
            randomStrand(min_len + rng.nextBelow(spread), rng));
        if (primers != nullptr)
            originals.back() = attachPrimers(*primers, originals.back());
    }
    std::vector<Strand> reads;
    for (size_t c = 0; c < copies; ++c)
        for (size_t s = 0; s < n_strands; ++s)
            reads.push_back(channel.transmit(originals[s], rng));
    return reads;
}

/** Candidate lists of @p state and @p reference for @p read agree. */
void
expectSameCandidates(GreedyState &state,
                     gather_reference::Index &reference,
                     const Strand &read, const std::string &at)
{
    reference.sync(state);
    const std::vector<size_t> want = reference.candidates(read);
    ASSERT_EQ(state.candidatesOf(read), want) << at;
}

/**
 * Cluster @p reads like the sharded engine — minimizer shards, one
 * reused state, then the merge — checking every gather on the way.
 * Returns the number of candidate lists compared.
 */
size_t
checkShardsAndMerge(const std::vector<Strand> &reads, size_t qgram,
                    size_t shards, const std::string &at)
{
    ClusterParams params;
    params.qgram = qgram;
    std::vector<std::vector<size_t>> shard_reads(shards);
    for (size_t i = 0; i < reads.size(); ++i)
        shard_reads[cluster_detail::minimizerOf(reads[i], qgram) % shards]
            .push_back(i);

    struct ShardCluster
    {
        size_t rep;
        std::vector<size_t> members;
    };
    std::vector<ShardCluster> groups;
    GreedyState state(params);
    size_t compared = 0;
    for (size_t s = 0; s < shards; ++s) {
        gather_reference::Index reference(qgram);
        for (size_t id : shard_reads[s]) {
            expectSameCandidates(state, reference, reads[id],
                                 at + " shard " + std::to_string(s) +
                                     " read " + std::to_string(id));
            if (::testing::Test::HasFatalFailure())
                return compared;
            ++compared;
            state.consume(id, reads[id]);
        }
        for (size_t c = 0; c < state.clusterCount(); ++c)
            groups.push_back(
                { state.representativeId(c), std::move(state.membersOf(c)) });
        state.reset();
    }
    if (shards == 1)
        return compared;
    gather_reference::Index reference(qgram);
    for (ShardCluster &group : groups) {
        expectSameCandidates(state, reference, reads[group.rep],
                             at + " merge rep " +
                                 std::to_string(group.rep));
        if (::testing::Test::HasFatalFailure())
            return compared;
        ++compared;
        state.consumeGroup(group.rep, reads[group.rep],
                           std::move(group.members));
    }
    return compared;
}

TEST(GatherDifferential, SoupsMatchReferenceAtEveryQ)
{
    // Primer-framed soups make the primer grams frequent in every
    // state; primer-less soups leave frequent grams to chance (q 6 on
    // long reads). Enough strands per shard that the frequent
    // threshold moves past its floor of 8 postings.
    const PrimerPair primers =
        makePrimerPair(5, StorageConfig::benchScale().primerLen);
    Rng rng(2027);
    size_t compared = 0;
    for (int iter = 0; iter < fuzzIters(4); ++iter) {
        for (size_t qgram : { size_t(6), size_t(8), size_t(12) }) {
            for (bool primed : { true, false }) {
                const size_t strands = 50 + rng.nextBelow(100);
                const size_t copies = 2 + rng.nextBelow(3);
                const double error = 0.01 * double(1 + rng.nextBelow(8));
                const std::vector<Strand> reads =
                    makeSoup(strands, copies, 90, 220, error, rng,
                             primed ? &primers : nullptr);
                const size_t shards = 1 + rng.nextBelow(4);
                const std::string at = "iter " + std::to_string(iter) +
                    " q " + std::to_string(qgram) +
                    (primed ? " primed" : " bare") + " shards " +
                    std::to_string(shards);
                compared += checkShardsAndMerge(reads, qgram, shards, at);
                if (HasFatalFailure())
                    return;
            }
        }
    }
    EXPECT_GT(compared, 1000u);
}

TEST(GatherDifferential, LateWatermarkRaisesMatchFullIndex)
{
    // A state indexes only the grams under a watermark, which a query
    // raises, back-filling the new band from every representative,
    // when its largest signature hash lies above it. Long reads keep
    // the watermark low: their 32 smallest of ~444 hashes lie in the
    // bottom seventh of the range. So hundreds of 455-base reads open
    // clusters first, and only then come 40-80-base noisy fragments
    // of them, whose 32 smallest hashes span most of the range: each
    // raise back-fills a wide band, and the fragments' candidates come
    // from the back-filled chains. Framed by primers, those chains
    // include frequent ones, whose votes need newest-first order.
    // The reference indexes every gram of every representative.
    const size_t primer_len = StorageConfig::benchScale().primerLen;
    const PrimerPair primers = makePrimerPair(5, primer_len);
    Rng rng(2029);
    IdsChannel channel(ErrorModel::uniform(0.02));
    size_t compared = 0;
    for (int iter = 0; iter < fuzzIters(2); ++iter) {
        for (bool primed : { true, false }) {
            const size_t frame = primed ? 2 * primer_len : 0;
            auto framed = [&](const Strand &payload) {
                return primed ? attachPrimers(primers, payload) : payload;
            };
            const size_t strands = 200 + rng.nextBelow(200);
            std::vector<Strand> payloads, reads;
            for (size_t s = 0; s < strands; ++s) {
                payloads.push_back(randomStrand(455 - frame, rng));
                reads.push_back(
                    channel.transmit(framed(payloads.back()), rng));
            }
            for (size_t s = 0; s < strands; ++s) {
                const Strand &payload = payloads[rng.nextBelow(strands)];
                const size_t len = 40 + rng.nextBelow(41) - frame;
                const long at = long(rng.nextBelow(payload.size() - len));
                const Strand fragment(payload.begin() + at,
                                      payload.begin() + at + long(len));
                reads.push_back(channel.transmit(framed(fragment), rng));
            }
            const size_t shards = 1 + rng.nextBelow(4);
            const std::string at = "iter " + std::to_string(iter) +
                (primed ? " primed" : " bare") + " shards " +
                std::to_string(shards);
            compared += checkShardsAndMerge(reads, 12, shards, at);
            if (HasFatalFailure())
                return;
        }
    }
    EXPECT_GT(compared, 1000u);
}

TEST(GatherDifferential, FingerprintMergedChainsCountEveryPosting)
{
    // Two distinct 10-grams whose hashes share a GramIndex
    // fingerprint post under one chain, so a representative holding
    // both posts its cluster twice there, back to back. Short reads
    // (every gram in the signature) carry the pair often enough that
    // the merged chain turns frequent, and the in-place vote must
    // count both postings, as the reference does.
    constexpr size_t q = 10;
    std::vector<uint64_t> by_fp;
    for (uint64_t gram = 0; gram < (uint64_t(1) << (2 * q)); ++gram)
        by_fp.push_back(uint64_t(GramIndex::fingerprint(
                            cluster_detail::mixHash(gram)))
                            << (2 * q) |
                        gram);
    std::sort(by_fp.begin(), by_fp.end());
    uint64_t gram_a = 0, gram_b = 0;
    for (size_t i = 0; i + 1 < by_fp.size() && gram_a == gram_b; ++i)
        if (by_fp[i] >> (2 * q) == by_fp[i + 1] >> (2 * q)) {
            gram_a = by_fp[i] & ((uint64_t(1) << (2 * q)) - 1);
            gram_b = by_fp[i + 1] & ((uint64_t(1) << (2 * q)) - 1);
        }
    ASSERT_NE(gram_a, gram_b) << "no fingerprint-colliding 10-gram pair";
    auto bases = [](uint64_t gram) {
        Strand s(q);
        for (size_t i = 0; i < q; ++i)
            s[i] = baseFromBits(unsigned(gram >> (2 * (q - 1 - i))));
        return s;
    };
    const Strand a = bases(gram_a), b = bases(gram_b);

    Rng rng(2028);
    IdsChannel channel(ErrorModel::uniform(0.01));
    std::vector<Strand> reads;
    for (size_t t = 0; t < 120; ++t) {
        Strand s = randomStrand(14 + rng.nextBelow(10), rng);
        const unsigned carries = unsigned(rng.nextBelow(3)) + 1;
        if (carries & 1)
            s.insert(s.begin() + long(rng.nextBelow(s.size())), a.begin(),
                     a.end());
        if (carries & 2)
            s.insert(s.begin() + long(rng.nextBelow(s.size())), b.begin(),
                     b.end());
        for (int copy = 0; copy < 3; ++copy)
            reads.push_back(channel.transmit(s, rng));
    }

    ClusterParams params;
    params.qgram = q;
    GreedyState state(params);
    gather_reference::Index reference(q);
    for (size_t i = 0; i < reads.size(); ++i) {
        expectSameCandidates(state, reference, reads[i],
                             "read " + std::to_string(i));
        if (HasFatalFailure())
            return;
        state.consume(i, reads[i]);
    }
    // The case was exercised: the merged chain is frequent and posts
    // some cluster twice in a row.
    reference.sync(state);
    const std::vector<size_t> &chain = reference.postings(
        GramIndex::fingerprint(cluster_detail::mixHash(gram_a)));
    EXPECT_GE(chain.size(),
              std::max(cluster_detail::kFrequentMinPostings,
                       state.clusterCount() /
                           cluster_detail::kFrequentClusterDivisor));
    EXPECT_NE(std::adjacent_find(chain.begin(), chain.end()), chain.end());
}

} // namespace
} // namespace dnastore
