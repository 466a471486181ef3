#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "channel/ids_channel.hh"
#include "cluster/greedy.hh"
#include "dna/primer.hh"
#include "fuzz_iters.hh"
#include "pipeline/config.hh"
#include "util/rng.hh"

namespace dnastore {
namespace {

/**
 * Differential suite for two-bound verification: GreedyState first
 * verifies candidates within a bound learnt from its history and
 * re-verifies at the full limit only on a miss. Every join-or-open
 * decision is checked against the frozen single-pass rule: each
 * candidate's exact distance, the (distance, cluster id) minimum
 * within the limit, or a new cluster when none is within it.
 */

using cluster_detail::GreedyState;

constexpr size_t kNone = size_t(-1);

Strand
randomStrand(size_t len, Rng &rng)
{
    Strand s(len);
    for (auto &b : s)
        b = baseFromBits(unsigned(rng.nextBelow(4)));
    return s;
}

size_t
limitOf(const ClusterParams &params, const Strand &read)
{
    return size_t(params.maxDistanceFrac * double(read.size()));
}

/**
 * The frozen rule over @p state's candidates for @p read: the
 * cluster to join, or kNone; @p best_d receives its distance.
 */
size_t
frozenDecision(GreedyState &state, const Strand &read, size_t limit,
               size_t *best_d)
{
    size_t best = kNone;
    *best_d = limit;
    for (size_t c : state.candidatesOf(read)) {
        const StrandView rep = state.representativeStrand(c);
        const size_t d = editDistanceRange(read.data(), read.size(),
                                           rep.data(), rep.size());
        if (d < *best_d || (d == *best_d && c < best)) {
            *best_d = d;
            best = c;
        }
    }
    return best;
}

/** Which verification paths the checked decisions took. */
struct Tally
{
    size_t decisions = 0;
    size_t firstPassHits = 0; //!< Joined within the first bound.
    size_t retryJoins = 0;    //!< Missed it, joined at the limit.
    size_t retryOpens = 0;    //!< Missed both, opened a cluster.
};

/**
 * Run @p consume, which join-or-opens @p read on @p state with
 * @p last as its newest member, and check where it landed against
 * the frozen rule. Returns the frozen decision.
 */
template <typename Consume>
size_t
checkDecision(GreedyState &state, const ClusterParams &params,
              const Strand &read, size_t last, Consume consume,
              Tally &tally, const std::string &at)
{
    const size_t limit = limitOf(params, read);
    const size_t first = state.firstBound(limit);
    EXPECT_LE(first, limit) << at;
    size_t best_d = 0;
    const size_t want = frozenDecision(state, read, limit, &best_d);
    const bool verified = !state.candidatesOf(read).empty();
    ++tally.decisions;
    if (want != kNone && best_d <= first)
        ++tally.firstPassHits;
    else if (verified && first < limit)
        ++(want == kNone ? tally.retryOpens : tally.retryJoins);

    const size_t before = state.clusterCount();
    consume();
    const size_t landed = want == kNone ? before : want;
    EXPECT_EQ(state.clusterCount(), before + (want == kNone ? 1 : 0))
        << at << ": expected " << (want == kNone ? "an open" : "a join");
    if (landed < state.clusterCount()) {
        EXPECT_EQ(state.membersOf(landed).back(), last) << at;
    }
    return want;
}

/** Canonical clusterOf of @p members: ordered by smallest member. */
std::vector<size_t>
canonicalClusterOf(std::vector<std::vector<size_t>> members, size_t n)
{
    for (auto &m : members)
        std::sort(m.begin(), m.end());
    std::sort(members.begin(), members.end());
    std::vector<size_t> cluster_of(n, 0);
    for (size_t c = 0; c < members.size(); ++c)
        for (size_t r : members[c])
            cluster_of[r] = c;
    return cluster_of;
}

/**
 * Cluster @p reads like the sharded engine (minimizer shards on one
 * reused state, then the merge into the reset state), checking every
 * decision, then the final clusterOf against the frozen decisions'.
 */
void
checkSoup(const std::vector<Strand> &reads, size_t qgram, size_t shards,
          Tally &tally, const std::string &at)
{
    ClusterParams params;
    params.qgram = qgram;
    std::vector<std::vector<size_t>> shard_reads(shards);
    for (size_t i = 0; i < reads.size(); ++i)
        shard_reads[cluster_detail::minimizerOf(reads[i], qgram) % shards]
            .push_back(i);

    // The frozen decisions' clusters, per state: members, first = rep.
    std::vector<std::vector<size_t>> groups, frozen;
    GreedyState state(params);
    for (size_t s = 0; s < shards; ++s) {
        if (s > 0)
            state.reset();
        frozen.clear();
        for (size_t id : shard_reads[s]) {
            const size_t want = checkDecision(
                state, params, reads[id], id,
                [&] { state.consume(id, reads[id]); }, tally,
                at + " shard " + std::to_string(s) + " read " +
                    std::to_string(id));
            if (::testing::Test::HasFailure())
                return;
            if (want == kNone)
                frozen.push_back({ id });
            else
                frozen[want].push_back(id);
        }
        groups.insert(groups.end(), frozen.begin(), frozen.end());
    }
    if (shards > 1) {
        state.reset();
        frozen.clear();
        for (std::vector<size_t> &group : groups) {
            const size_t rep = group.front(), last = group.back();
            std::vector<size_t> members = group;
            const size_t want = checkDecision(
                state, params, reads[rep], last,
                [&] { state.consumeGroup(rep, reads[rep], std::move(members)); },
                tally, at + " merge rep " + std::to_string(rep));
            if (::testing::Test::HasFailure())
                return;
            if (want == kNone)
                frozen.push_back(std::move(group));
            else
                frozen[want].insert(frozen[want].end(), group.begin(),
                                    group.end());
        }
    }
    EXPECT_EQ(state.finalize(reads.size()).clusterOf,
              canonicalClusterOf(frozen, reads.size()))
        << at;
}

TEST(VerifyDifferential, SoupsMatchSinglePassAtEveryErrorRate)
{
    // Low error keeps first passes hitting; high error pushes true
    // distances past the bound, and past the limit, so retries join
    // and open. Primer-framed soups make the primer grams frequent.
    const PrimerPair primers =
        makePrimerPair(5, StorageConfig::benchScale().primerLen);
    Rng rng(2031);
    Tally tally;
    for (int iter = 0; iter < fuzzIters(1); ++iter) {
        for (double error : { 0.02, 0.05, 0.08, 0.12, 0.15 }) {
            IdsChannel channel(ErrorModel::uniform(error));
            for (size_t qgram : { size_t(6), size_t(12) }) {
                const bool primed = rng.nextBelow(2) == 0;
                std::vector<Strand> originals, reads;
                const size_t strands = 40 + rng.nextBelow(60);
                for (size_t s = 0; s < strands; ++s) {
                    originals.push_back(
                        randomStrand(150 + rng.nextBelow(270), rng));
                    if (primed)
                        originals.back() =
                            attachPrimers(primers, originals.back());
                }
                const size_t copies = 3 + rng.nextBelow(4);
                for (size_t c = 0; c < copies; ++c)
                    for (const Strand &o : originals)
                        reads.push_back(channel.transmit(o, rng));
                const size_t shards = 1 + rng.nextBelow(4);
                checkSoup(reads, qgram, shards, tally,
                          "iter " + std::to_string(iter) + " error " +
                              std::to_string(error) + " q " +
                              std::to_string(qgram) + " shards " +
                              std::to_string(shards));
                if (HasFailure())
                    return;
            }
        }
    }
    // Every path ran.
    EXPECT_GT(tally.firstPassHits, 0u);
    EXPECT_GT(tally.retryJoins, 0u);
    EXPECT_GT(tally.retryOpens, 0u);
}

/**
 * @p base with a substitution at each of @p count evenly spaced
 * positions in [lo, hi).
 */
Strand
substituted(const Strand &base, size_t count, size_t lo, size_t hi,
            Rng &rng)
{
    Strand s = base;
    for (size_t i = 0; i < count; ++i) {
        const size_t at = lo + i * (hi - lo) / count;
        s[at] = baseFromBits(
            (bitsFromBase(s[at]) + 1 + unsigned(rng.nextBelow(3))) & 3);
    }
    return s;
}

size_t
distance(const Strand &a, const Strand &b)
{
    return editDistanceRange(a.data(), a.size(), b.data(), b.size());
}

TEST(VerifyDifferential, BoundEdgesMatchSinglePass)
{
    // 455-base strands (limit 113) at q 12. Representatives differ
    // from a base strand in one of two regions ([0, 190) and
    // [190, 380)), so any two of them are more than the limit apart
    // and each opens its own cluster; a probe read differs from the
    // base in the tail [380, 455) only, by just enough substitutions
    // to put it at the wanted distance from each representative.
    constexpr size_t len = 455, m = 57;
    ClusterParams params;
    params.qgram = 12;
    const size_t limit = size_t(params.maxDistanceFrac * double(len));
    GreedyState state(params);
    Rng rng(2032);
    size_t next_id = 0;
    auto consume = [&](const Strand &read) {
        state.consume(next_id++, read);
    };
    // History: 40 joins at distance 80 make the first bound the
    // edge of 80's bin, well inside the limit.
    for (int i = 0; i < 40; ++i) {
        const Strand origin = randomStrand(len, rng);
        consume(origin);
        consume(substituted(origin, 80, 0, 300, rng));
    }
    ASSERT_EQ(state.clusterCount(), 40u);

    // Checks @p probe's decision against the frozen rule and @p want.
    auto probe = [&](const Strand &read, size_t want,
                     const std::string &at) {
        size_t best_d = 0;
        EXPECT_EQ(frozenDecision(state, read, limit, &best_d), want) << at;
        Tally tally;
        const size_t id = next_id++;
        checkDecision(state, params, read, id,
                      [&] { state.consume(id, read); }, tally, at);
    };

    {
        // Two candidates at exactly the first bound: the lower id.
        const Strand base = randomStrand(len, rng);
        const Strand a = substituted(base, m, 0, 190, rng);
        const Strand b = substituted(base, m, 190, 380, rng);
        const size_t id_a = state.clusterCount();
        consume(a);
        consume(b);
        ASSERT_EQ(state.clusterCount(), id_a + 2);
        const size_t first = state.firstBound(limit);
        ASSERT_GT(first, m);
        ASSERT_LT(first, limit);
        const Strand read = substituted(base, first - m, 380, len, rng);
        ASSERT_EQ(distance(read, a), first);
        ASSERT_EQ(distance(read, b), first);
        const std::vector<size_t> &cands = state.candidatesOf(read);
        ASSERT_NE(std::find(cands.begin(), cands.end(), id_a), cands.end());
        ASSERT_NE(std::find(cands.begin(), cands.end(), id_a + 1),
                  cands.end());
        probe(read, id_a, "tie at the first bound");
    }
    {
        // The nearest candidate at the first bound + 1, after a
        // farther one with a lower id: a first pass never reports the
        // bound + 1 as a distance, so only the retry finds it.
        const Strand base = randomStrand(len, rng);
        const Strand far = substituted(base, m + 3, 0, 190, rng);
        const Strand near = substituted(base, m + 1, 190, 380, rng);
        const size_t id_far = state.clusterCount();
        consume(far);
        consume(near);
        ASSERT_EQ(state.clusterCount(), id_far + 2);
        const size_t first = state.firstBound(limit);
        ASSERT_GT(first, m);
        ASSERT_LE(first + 3, limit);
        const Strand read = substituted(base, first - m, 380, len, rng);
        ASSERT_EQ(distance(read, near), first + 1);
        ASSERT_EQ(distance(read, far), first + 3);
        const std::vector<size_t> &cands = state.candidatesOf(read);
        ASSERT_NE(std::find(cands.begin(), cands.end(), id_far),
                  cands.end());
        ASSERT_NE(std::find(cands.begin(), cands.end(), id_far + 1),
                  cands.end());
        probe(read, id_far + 1, "nearest at the first bound + 1");
    }
    {
        // A read whose only candidate lies past the first bound but
        // within the limit joins it through the retry.
        const Strand base = randomStrand(len, rng);
        const Strand rep = substituted(base, 80, 0, 300, rng);
        const size_t id = state.clusterCount();
        consume(rep);
        const size_t first = state.firstBound(limit);
        ASSERT_GT(first + 5, 80u);
        ASSERT_LT(first + 5, limit);
        const Strand read = substituted(base, first + 5 - 80, 380, len, rng);
        ASSERT_EQ(distance(read, rep), first + 5);
        ASSERT_EQ(state.candidatesOf(read), std::vector<size_t>{ id });
        probe(read, id, "only candidate in (first bound, limit]");
    }
}

TEST(VerifyDifferential, ResetForgetsTheHistory)
{
    // A fresh or reset state verifies at the limit; its history makes
    // the first bound smaller.
    ClusterParams params;
    params.qgram = 12;
    GreedyState state(params);
    EXPECT_EQ(state.firstBound(113), 113u);
    Rng rng(2033);
    IdsChannel channel(ErrorModel::uniform(0.02));
    const Strand origin = randomStrand(455, rng);
    for (size_t i = 0; i < 8; ++i)
        state.consume(i, channel.transmit(origin, rng));
    ASSERT_EQ(state.clusterCount(), 1u);
    EXPECT_LT(state.firstBound(113), 113u);
    state.reset();
    EXPECT_EQ(state.firstBound(113), 113u);
}

} // namespace
} // namespace dnastore
