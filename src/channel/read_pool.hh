/**
 * @file
 * Pre-generated pools of noisy reads for progressive coverage sweeps.
 *
 * The paper's methodology (section 6.1.2) generates a large pool of
 * noisy strands per original string, starts at low coverage, and
 * progressively adds more reads from the pool for each coverage point.
 * Re-using the same pool across coverage points makes the sweep
 * monotone in information content, exactly as in the paper.
 *
 * Each cluster's reads live in one contiguous arena (optionally 2-bit
 * packed) instead of N small vectors; queries hand out StrandViews via
 * fillBatch() so the decode hot path never copies a read.
 */

#ifndef DNASTORE_CHANNEL_READ_POOL_HH
#define DNASTORE_CHANNEL_READ_POOL_HH

#include <cstddef>
#include <vector>

#include "channel/coverage.hh"
#include "channel/ids_channel.hh"
#include "dna/packed_strand.hh"
#include "dna/strand.hh"
#include "util/rng.hh"

namespace dnastore {

/** How a ReadPool stores its reads. */
enum class ReadStorage
{
    Flat,   //!< One byte per base, views alias the pool directly.
    Packed, //!< 2 bits per base; queries unpack into the batch scratch.
};

/** Noisy-read pools for a set of reference strands. */
class ReadPool
{
  public:
    /**
     * Generate pools.
     *
     * @param references   One original strand per cluster.
     * @param channel      The IDS channel to sample reads from.
     * @param max_coverage Reads generated per cluster.
     * @param rng          Randomness source.
     */
    ReadPool(const std::vector<Strand> &references,
             const IdsChannel &channel, size_t max_coverage, Rng &rng);

    /**
     * Generate pools with one independent RNG stream per cluster,
     * optionally in parallel.
     *
     * Cluster seeds are drawn serially from a base stream seeded with
     * @p seed, so the pools are bit-identical for every
     * @p num_threads value (0 = all hardware threads) and for either
     * storage mode.
     */
    ReadPool(const std::vector<Strand> &references,
             const IdsChannel &channel, size_t max_coverage,
             uint64_t seed, size_t num_threads,
             ReadStorage storage = ReadStorage::Flat);

    /**
     * Rebuild a pool from explicit per-cluster reads — the restore
     * half of the durable `.dnapool` format. Read order is preserved
     * exactly, so prefix-based coverage queries return the same
     * batches the saved pool would have. Clusters may be ragged
     * (aging loses whole reads): each may hold up to @p max_coverage
     * reads, and coverage queries clamp to what survives.
     *
     * @throws std::invalid_argument when a cluster holds more than
     *         @p max_coverage reads.
     */
    ReadPool(const std::vector<std::vector<Strand>> &clusters,
             size_t max_coverage,
             ReadStorage storage = ReadStorage::Flat);

    /**
     * Owning copies of every read, cluster-major in pool order — the
     * snapshot half of the durable format (inverse of the restoring
     * constructor).
     */
    std::vector<std::vector<Strand>> snapshot() const;

    /** Number of clusters. */
    size_t clusters() const { return clusterCount_; }

    /** Maximum coverage available per cluster. */
    size_t maxCoverage() const { return maxCoverage_; }

    /**
     * Reads currently alive in cluster @p cluster. Equal to
     * maxCoverage() for a freshly generated pool; aging
     * (channel/aging.hh) loses reads, leaving the pool ragged.
     */
    size_t clusterSize(size_t cluster) const;

    /** Live reads summed across clusters. */
    size_t totalReads() const;

    /**
     * The first @p coverage reads of cluster @p cluster, as owning
     * copies (compatibility API; hot paths use fillBatch instead).
     * Clamped to the cluster's live read count.
     *
     * @throws std::out_of_range if coverage exceeds maxCoverage().
     */
    std::vector<Strand> reads(size_t cluster, size_t coverage) const;

    /**
     * Replace cluster @p cluster's reads wholesale — the repair half
     * of the scrubber (pipeline/simulator.hh): a repaired cluster's
     * rewritten strands overwrite whatever decayed reads it held.
     * Touches only that cluster's arena, so distinct clusters may be
     * replaced concurrently.
     *
     * @throws std::invalid_argument when more than maxCoverage()
     *         reads are supplied.
     */
    void replaceCluster(size_t cluster,
                        const std::vector<Strand> &reads);

    /**
     * Fill @p batch with the first @p coverage reads of every cluster
     * as views — no read is copied for flat pools; packed pools unpack
     * into the batch's scratch arena. The batch's buffers are reused
     * across calls. Per-cluster counts clamp to the live reads, so an
     * aged (ragged) pool serves what survives.
     */
    void fillBatch(size_t coverage, ReadBatch &batch) const;

    /** Fill @p batch with counts[c] reads of cluster c (clamped). */
    void fillBatch(const std::vector<size_t> &counts,
                   ReadBatch &batch) const;

    /**
     * Per-cluster read counts for a mean coverage under a coverage
     * distribution: draws one count per cluster (capped by the pool
     * size) so sweeps can model Gamma-distributed cluster sizes.
     */
    std::vector<size_t> sampleCounts(const CoverageModel &model,
                                     Rng &rng) const;

  private:
    std::vector<StrandArena> flat_;    //!< Per cluster (Flat mode).
    std::vector<PackedArena> packed_;  //!< Per cluster (Packed mode).
    ReadStorage storage_ = ReadStorage::Flat;
    size_t clusterCount_ = 0;
    size_t maxCoverage_;
};

} // namespace dnastore

#endif // DNASTORE_CHANNEL_READ_POOL_HH
