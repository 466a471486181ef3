/**
 * @file
 * Streaming, bounded-memory read clustering: the one clustering
 * engine. clusterReads (cluster/clusterer.hh) is a thin adapter that
 * feeds a std::vector<Strand> through it; there is no separate
 * in-memory path.
 *
 * StreamingClusterer ingests reads one at a time and keeps them 2-bit
 * packed in CRC-32-checksummed segments. With a nonzero memory budget
 * it spills to disk whenever the budget is exceeded, so a 10M+ read
 * soup clusters within a fixed buffer budget on a laptop; with a
 * budget of 0 it never spills.
 *
 * Three passes:
 *
 *  1. Ingest: each read is packed into an append-only log segment
 *     (record = global id, content minimizer, packed bases). The log
 *     buffers in memory and spills chunk-by-chunk past the budget.
 *  2. Shuffle: once the read count is known, the shard count is
 *     resolved (content-only) and the log is streamed into per-shard
 *     segments by minimizer. Records stay in global-id order within
 *     each shard because the log is consumed in ingest order.
 *  3. Cluster: each shard segment is streamed through the greedy
 *     pass (shards fan out over the thread pool, each on a reset
 *     state from a free list), keeping only representatives and
 *     member lists, then merged serially in shard order and
 *     canonicalized.
 *
 * Determinism contract: the clustering is bit-identical for every
 * memory budget (spill or no spill), thread count, and SIMD tier.
 * Corrupt or truncated spill segments raise SpillError — never a
 * wrong clustering (every chunk's CRC is verified before any record
 * in it is parsed).
 */

#ifndef DNASTORE_CLUSTER_STREAM_HH
#define DNASTORE_CLUSTER_STREAM_HH

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/clusterer.hh"
#include "dna/packed_strand.hh"
#include "util/byteio.hh"

namespace dnastore {

/**
 * A spill segment failed integrity or I/O checks (bad magic, CRC
 * mismatch, truncation, unwritable spill directory). The clustering
 * in progress is abandoned; no partial result escapes.
 */
class SpillError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Observability counters for a streaming run. */
struct StreamStats
{
    size_t reads = 0;         //!< Reads ingested.
    size_t shards = 0;        //!< Shard count resolved at finish().
    size_t peakBufferBytes = 0; //!< High-water mark of buffered segment bytes.
    size_t spilledBytes = 0;  //!< Segment bytes written to disk.
    size_t spillChunks = 0;   //!< CRC-framed chunks written to disk.
};

namespace cluster_detail {

/**
 * Spill chunk framing, exposed for the corruption-sweep tests: a
 * chunk is [magic u32][payload length u32][CRC-32 of payload u32]
 * [payload], little-endian. Readers verify magic, a sane length, and
 * the CRC before parsing a single record byte.
 */
constexpr uint32_t kSpillMagic = 0x4c505344; // "DSPL"

/** Frame @p payload as one chunk appended to @p out. */
void appendSpillChunk(std::vector<uint8_t> &out,
                      const uint8_t *payload, size_t n);

/**
 * Parse every chunk in @p bytes, invoking @p record for each spill
 * record (id, minimizer, length, packed words). Throws SpillError on
 * any framing, CRC, or record-bounds violation.
 */
void parseSpillChunks(
    const uint8_t *bytes, size_t n,
    const std::function<void(uint64_t id, uint64_t minimizer,
                             size_t len, const uint64_t *words)>
        &record);

} // namespace cluster_detail

/**
 * Out-of-core greedy clustering engine. Feed reads in global-id
 * order with add(); finish() resolves shards, clusters, and returns
 * the canonical Clustering. Single ingestion thread; finish() fans
 * shard clustering over ClusterParams::numThreads.
 *
 * Spill segments live under ClusterParams::spillDir (system temp
 * directory when empty). Each is created private (mode 0600) under a
 * fresh name and unlinked at once, so the directory never shows it
 * and its blocks are freed when the engine closes it — on error
 * paths and crashes too.
 */
class StreamingClusterer
{
  public:
    explicit StreamingClusterer(const ClusterParams &params);
    ~StreamingClusterer();

    StreamingClusterer(const StreamingClusterer &) = delete;
    StreamingClusterer &operator=(const StreamingClusterer &) = delete;

    /** Ingest the next read (global id = number of prior adds). */
    void add(StrandView read);

    /** Cluster everything ingested. Call exactly once. */
    Clustering finish();

    const StreamStats &stats() const { return stats_; }

  private:
    struct Segment;
    struct ShardResult;

    void appendRecord(Segment &seg, uint64_t id, uint64_t minimizer,
                      StrandView read);
    void sealChunk(Segment &seg);
    void spillToDisk(Segment &seg);
    void enforceBudget(std::vector<Segment> &segs);
    void releaseSegment(Segment &seg);
    void forEachRecord(
        Segment &seg,
        const std::function<void(uint64_t id, uint64_t minimizer,
                                 size_t len, const uint64_t *words)>
            &record);

    ClusterParams params_;
    std::string spillDir_;
    size_t bufferedBytes_ = 0;
    bool finished_ = false;

    std::unique_ptr<Segment> log_;
    StreamStats stats_;
    std::vector<uint64_t> packScratch_;
};

} // namespace dnastore

#endif // DNASTORE_CLUSTER_STREAM_HH
