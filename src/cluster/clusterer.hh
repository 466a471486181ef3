/**
 * @file
 * Read clustering by sequence similarity.
 *
 * Before consensus, sequenced reads must be grouped so that each
 * cluster holds the noisy copies of one original strand (paper
 * section 2.1, citing Rashtchian et al. [22]). The paper's evaluation
 * side-steps clustering ("our data is perfectly clustered"); this
 * module provides a real clusterer so the pipeline's perfect-
 * clustering assumption can itself be tested:
 *
 *  - a q-gram (k-mer) signature, looked up in one flat gram index
 *    (cluster/gram_index.hh), buckets reads cheaply; a gram
 *    that many representatives share (the primers every strand
 *    carries) votes for a candidate but never nominates one
 *    (cluster/greedy.hh), so it cannot make every cluster a
 *    candidate of every read;
 *  - candidates are verified against their cluster representatives
 *    with bounded batched edit distance (editDistanceBatch), which
 *    computes only what the join decision reads: the distance when it
 *    is within the join limit, and limit + 1 otherwise;
 *  - reads that match no representative start new clusters.
 *
 * This is the standard single-linkage-to-representative scheme used
 * by practical DNA-storage pipelines, linear-ish in the number of
 * reads for well-separated strands.
 */

#ifndef DNASTORE_CLUSTER_CLUSTERER_HH
#define DNASTORE_CLUSTER_CLUSTERER_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dna/strand.hh"

namespace dnastore {

/** Clustering tuning knobs. */
struct ClusterParams
{
    /** q-gram length for the signature index. */
    size_t qgram = 6;

    /**
     * Maximum edit distance (as a fraction of read length) to join an
     * existing cluster. 0.25 tolerates ~12% per-strand error rates on
     * both the representative and the read. Candidates are verified
     * with bounded batched edit distances (editDistanceBatch): exact
     * up to the limit, limit + 1 beyond it. The read joins the
     * closest candidate within the limit, the earliest on ties.
     */
    double maxDistanceFrac = 0.25;

    /**
     * Worker threads for the sharded parallel mode: 1 = serial
     * (default), 0 = all hardware threads. The clustering produced is
     * bit-identical for every value — the shard structure depends
     * only on read content, never on the thread count.
     */
    size_t numThreads = 1;

    /**
     * Number of minimizer-signature shards clustered independently
     * before the deterministic shard merge. 0 (default) sizes the
     * shard set from the read count at a ~512 reads-per-shard target
     * (1 for small inputs, no ceiling — a 10M-read soup gets ~19k
     * shards); 1 forces the classic single-pass greedy clustering.
     */
    size_t numShards = 0;

    /**
     * Memory budget for the read soup, in bytes. Every clustering runs
     * through the streaming engine (cluster/stream.hh), which buffers
     * 2-bit packed reads. 0 (default) means no budget: the engine
     * never spills. Any other value spills the excess to
     * CRC-checksummed shard segments under spillDir. The budget never
     * changes the clustering, and it governs read buffering only —
     * the representative index scales with the cluster count times
     * the share of the hash range under the index watermark (about
     * 15% on benchScale reads; short reads raise it), not with the
     * read count.
     */
    size_t memoryBudgetBytes = 0;

    /**
     * Directory for streaming spill segments. Empty (default) uses
     * the system temporary directory. Only consulted when
     * memoryBudgetBytes forces an out-of-core run.
     */
    std::string spillDir;

    /**
     * First broken constraint, or nullptr when valid: the one rule
     * StreamingClusterer and api::ClusterOptions::validate both run.
     */
    const char *check() const;
};

/** Result of clustering a read set. */
struct Clustering
{
    /** clusterOf[i] = cluster id of read i. */
    std::vector<size_t> clusterOf;

    /** Reads grouped by cluster id. */
    std::vector<std::vector<size_t>> members;

    /** Number of clusters formed. */
    size_t count() const { return members.size(); }
};

/**
 * Cluster reads by similarity: a thin adapter that feeds @p reads
 * through StreamingClusterer (cluster/stream.hh). Deterministic for a
 * given input: results are bit-identical for every
 * ClusterParams::numThreads value, every memory budget, and every SIMD
 * dispatch tier (candidate verification is bounded but exact within
 * the join limit, and bit-identical across tiers; which grams are
 * frequent depends only on the consume sequence).
 *
 * With more than one shard, reads are partitioned by the minimizer
 * (smallest q-gram hash) of their content, each shard is clustered
 * independently — this is what parallelizes — and the per-shard
 * clusters are then merged serially in shard order by re-verifying
 * shard representatives against the merged set (Rashtchian et al.'s
 * distributed clustering shape). Cluster ids are canonicalized by
 * each cluster's smallest member index.
 */
Clustering clusterReads(const std::vector<Strand> &reads,
                        const ClusterParams &params = {});

/**
 * Score a clustering against ground truth (pairwise precision/recall).
 *
 * @param truth truth[i] = true cluster of read i.
 */
struct ClusterQuality
{
    double precision = 0.0; //!< P(same true cluster | same predicted).
    double recall = 0.0;    //!< P(same predicted | same true cluster).
};

ClusterQuality scoreClustering(const Clustering &clustering,
                               const std::vector<size_t> &truth);

} // namespace dnastore

#endif // DNASTORE_CLUSTER_CLUSTERER_HH
