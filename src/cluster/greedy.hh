/**
 * @file
 * The greedy single-linkage-to-representative clustering core of the
 * streaming engine (cluster/stream.hh).
 *
 * GreedyState consumes reads one at a time — join the closest
 * verified representative or open a new cluster — against a flat
 * gram index (cluster/gram_index.hh), and owns
 * every scratch buffer the per-read loop needs, so the steady state
 * does no heap allocation. The consumer is deliberately ignorant of
 * where reads live: the engine feeds it records decoded from buffered
 * or spilled segments, and identical consume sequences produce
 * identical clusterings — that equivalence is the engine's
 * bit-identity contract across memory budgets.
 *
 * Candidate generation looks a read's minhash signature up in the
 * index. Every strand carries the same primers, so a primer gram is
 * posted by nearly every representative; counted like any other gram
 * it would make every cluster a candidate of every read. A frequent
 * gram (see kFrequentMinPostings) therefore only votes: a cluster becomes
 * a candidate when at least one rare gram hits it and it has two hits
 * in total, primer votes included. A frequent gram's signature slot
 * is refilled by the next-smallest gram. A clustering differs from
 * the count-every-gram rule only once some chain reaches the
 * threshold: at q = 12 in practice only primer grams do; at q = 6 on
 * long reads common payload grams do too.
 *
 * The per-read loop's hot spots, all kept exact:
 *
 *  - A signature hashes each gram once and sorts only the hashes
 *    under a bound that about 2 cap + 16 of them pass (signatureInto).
 *  - The gather never copies a frequent chain. It walks each chain
 *    for at most `frequent` postings to classify it and sorts only
 *    the rare postings into nominees. Ids descend along a chain
 *    (gram_index.hh), so one walk per frequent chain adds its votes
 *    and stops below the lowest nominee.
 *  - The index holds only the grams whose hash is at or below a
 *    watermark. A query looks up its kQuerySignatureSlots smallest
 *    hashes, which on 455-base reads lie in the bottom 13% or so of
 *    the range. When a query's largest one is above the watermark, it
 *    first doubles the watermark past it and back-fills the new band
 *    from every representative, in ascending id. A chain's keys share
 *    their top 32 bits (gram_index.hh), so the band's chains were
 *    empty and end up exactly as a full index holds them, newest
 *    first. Doubling keeps raises rare: a handful per state.
 *  - Opening a cluster indexes the distinct grams of its
 *    representative under the watermark, collected in read order by
 *    DistinctGrams and inserted by GramIndex::insertAll with
 *    prefetch. All of an open's postings carry one id, so their order
 *    never reaches a result. The engine reuses one state per running
 *    shard (reset()), so the index grows from empty only once.
 *  - Verification runs candidates likeliest first (most signature
 *    hits), each batch bounded by the best distance so far, keeping
 *    the (distance, cluster id) minimum: the smallest distance,
 *    earliest cluster on ties, exactly as in id order.
 *
 * Everything here is an internal contract between the cluster/ TUs
 * (and their tests); the public surface stays cluster/clusterer.hh
 * and cluster/stream.hh.
 */

#ifndef DNASTORE_CLUSTER_GREEDY_HH
#define DNASTORE_CLUSTER_GREEDY_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/clusterer.hh"
#include "cluster/gram_index.hh"
#include "dna/packed_strand.hh"

namespace dnastore {
namespace cluster_detail {

/** Cheap 64-bit mix for q-gram hashing. */
inline uint64_t
mixHash(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
}

/**
 * Query signature size: a read looks up kQuerySignatureSize of its
 * smallest distinct q-gram hashes in the index (representatives are
 * indexed with all their grams up to the watermark). Frequent grams
 * do not count toward it: their slots are refilled from a slack of
 * kSignatureSlack more grams, so the query takes its
 * kQuerySignatureSlots smallest.
 */
constexpr size_t kQuerySignatureSize = 24;
constexpr size_t kSignatureSlack = 8;
constexpr size_t kQuerySignatureSlots =
    kQuerySignatureSize + kSignatureSlack;

/**
 * A gram is frequent when its posting chain holds at least
 * max(kFrequentMinPostings, clusterCount / kFrequentClusterDivisor)
 * postings — in practice the primer grams every strand carries. A
 * frequent gram votes for the clusters it posts but cannot make one
 * a candidate (minimap2's high-occurrence minimizer filter, softened
 * to keep the vote). Chain length depends only on the consume
 * sequence (fingerprint-merged chains count as one), so the rule is
 * as deterministic as the index.
 */
constexpr size_t kFrequentMinPostings = 8;
constexpr size_t kFrequentClusterDivisor = 8;

/**
 * Sorted unique q-gram hashes of @p read into @p out, truncated to
 * the @p cap smallest (minhash); pass SIZE_MAX for all of them. A
 * cap well below the gram count sorts only the hashes under a bound.
 * Reuses @p out's capacity — the reason it is an out-parameter.
 */
void signatureInto(StrandView read, size_t qgram, size_t cap,
                   std::vector<uint64_t> &out);

/**
 * Distinct q-gram hashes in [lo, hi] of a read, in first-occurrence
 * order: those of signatureInto(read, q, SIZE_MAX), unsorted. A
 * generation-stamped open-addressing set keyed by the full 64-bit
 * hash drops repeats, so two distinct grams always both survive —
 * keying by the 32-bit GramIndex fingerprint would merge colliding
 * grams and drop a posting. The set is reused across reads; a new
 * generation empties it in O(1).
 */
class DistinctGrams
{
  public:
    /** The distinct gram hashes in [lo, hi] of @p read into @p out. */
    void collect(StrandView read, size_t qgram, uint64_t lo, uint64_t hi,
                 std::vector<uint64_t> &out);

  private:
    struct Slot
    {
        uint64_t key;
        uint32_t gen; //!< Occupied in this call iff == gen_.
    };
    std::vector<Slot> slots_; //!< Power-of-two size, load <= 1/2.
    uint32_t gen_ = 0;
};

/**
 * The minimizer: the smallest q-gram hash of the read (0 when the
 * read is shorter than @p qgram). Content-only, so the shard a read
 * lands in never depends on thread count or read order.
 */
uint64_t minimizerOf(StrandView read, size_t qgram);

/**
 * Shard count: explicit, or sized from the read count at a ~512
 * reads-per-shard target (content-only — thread counts must never
 * enter, or the clustering would stop being bit-identical across
 * them; the target instead keeps the shard set comfortably wider
 * than any realistic thread count). No ceiling: a 10M-read soup gets
 * ~19k shards instead of serializing into 64 giant greedy passes.
 */
size_t resolveShardCount(const ClusterParams &params, size_t n_reads);

/**
 * Greedy clustering state: representatives, members, and the gram
 * index they are found through.
 *
 * Representative strands are copied into an internal arena at
 * open-cluster time, so consumers may discard a read's storage the
 * moment consume() returns — the property the out-of-core shard pass
 * is built on.
 */
class GreedyState
{
  public:
    explicit GreedyState(const ClusterParams &params);

    /**
     * Back to the constructed state, keeping every buffer's capacity;
     * capacity never reaches a result (cluster/gram_index.hh).
     */
    void reset();

    /**
     * Assign @p read (global id @p global_id) to the best verified
     * cluster, opening one if nothing is within the distance limit.
     */
    void consume(size_t global_id, StrandView read);

    /**
     * The shard-merge step: join-or-open by @p rep exactly like
     * consume(), then fold the whole member list of the shard cluster
     * it represents into the target.
     */
    void consumeGroup(size_t rep_id, StrandView rep,
                      std::vector<size_t> &&members);

    size_t clusterCount() const { return members_.size(); }
    size_t representativeId(size_t c) const { return representative_[c]; }
    StrandView representativeStrand(size_t c) const
    {
        return repArena_.view(c);
    }
    std::vector<size_t> &membersOf(size_t c) { return members_[c]; }

    /**
     * Candidates for @p read via the gram index, likeliest first:
     * by signature-hit count descending, ascending id on equal counts.
     * Walks the signature until kQuerySignatureSize rare grams are
     * used; a cluster qualifies only through a rare hit (see the file
     * comment). Raises the watermark first if the signature needs it.
     * Valid until the next call.
     */
    const std::vector<size_t> &candidatesOf(StrandView read);

    /**
     * Convert into the public Clustering shape: members ascending,
     * clusters ordered by smallest member. Consumes the state.
     */
    Clustering finalize(size_t n_reads);

  private:
    /** Candidate generation + verification; returns the cluster id. */
    size_t joinOrOpen(size_t rep_id, StrandView read);

    /**
     * Smallest verified distance <= limit, earliest cluster on ties,
     * whatever order the candidates are verified in.
     */
    size_t bestCluster(StrandView read, size_t limit);

    /** Open a new cluster represented by @p read, indexing its grams. */
    size_t openCluster(size_t rep_id, StrandView read);

    ClusterParams params_;

    GramIndex index_;
    uint64_t watermark_; //!< Highest indexed hash; low 32 bits set.
    StrandArena repArena_;
    std::vector<size_t> representative_;
    std::vector<std::vector<size_t>> members_;

    // Reusable per-read scratch: one signature/candidate/verify set
    // per state instead of a fresh vector per read.
    DistinctGrams distinct_;
    std::vector<uint64_t> sig_, repGrams_, ranked_;
    std::vector<uint32_t> hits_;          //!< Rare postings.
    std::vector<uint32_t> frequentHeads_; //!< Chains that only vote.
    std::vector<size_t> candidates_;
    std::vector<StrandView> reps_;
};

} // namespace cluster_detail
} // namespace dnastore

#endif // DNASTORE_CLUSTER_GREEDY_HH
