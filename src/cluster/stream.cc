#include "cluster/stream.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include <fcntl.h>
#include <unistd.h>

#include "cluster/greedy.hh"
#include "util/crc32.hh"
#include "util/errno_text.hh"
#include "util/parallel.hh"

namespace dnastore {

namespace cluster_detail {

void
appendSpillChunk(std::vector<uint8_t> &out, const uint8_t *payload,
                 size_t n)
{
    ByteWriter header;
    header.u32(kSpillMagic);
    header.u32(uint32_t(n));
    header.u32(crc32(payload, n));
    out.insert(out.end(), header.data().begin(), header.data().end());
    out.insert(out.end(), payload, payload + n);
}

namespace {

/** Largest chunk a writer emits; readers reject anything bigger. */
constexpr size_t kMaxChunkBytes = size_t(16) << 20;

/** Parse one chunk's records; bytes are CRC-verified already. */
void
parseRecords(const uint8_t *payload, size_t n,
             const std::function<void(uint64_t, uint64_t, size_t,
                                      const uint64_t *)> &record,
             std::vector<uint64_t> &words)
{
    ByteReader reader(payload, n);
    while (reader.ok() && reader.remaining() > 0) {
        uint64_t id = reader.u64();
        uint64_t minimizer = reader.u64();
        size_t len = reader.u32();
        size_t n_words = packedWordCount(len);
        words.resize(n_words);
        for (size_t w = 0; w < n_words; ++w)
            words[w] = reader.u64();
        if (!reader.ok())
            break;
        record(id, minimizer, len, words.data());
    }
    if (!reader.ok())
        throw SpillError(
            "spill chunk record ran past the chunk payload "
            "(corrupt record framing)");
}

} // namespace

void
parseSpillChunks(const uint8_t *bytes, size_t n,
                 const std::function<void(uint64_t, uint64_t, size_t,
                                          const uint64_t *)> &record)
{
    std::vector<uint64_t> words;
    ByteReader reader(bytes, n);
    while (reader.ok() && reader.remaining() > 0) {
        uint32_t magic = reader.u32();
        uint32_t len = reader.u32();
        uint32_t crc = reader.u32();
        if (!reader.ok())
            throw SpillError("truncated spill chunk header");
        if (magic != kSpillMagic)
            throw SpillError("bad spill chunk magic");
        if (len > kMaxChunkBytes)
            throw SpillError("implausible spill chunk length");
        if (len > reader.remaining())
            throw SpillError("truncated spill chunk payload");
        const uint8_t *payload = bytes + reader.pos();
        reader.skip(len);
        if (crc32(payload, len) != crc)
            throw SpillError("spill chunk CRC mismatch");
        parseRecords(payload, len, record, words);
    }
}

} // namespace cluster_detail

using cluster_detail::appendSpillChunk;
using cluster_detail::kSpillMagic;

namespace {

/** Seal buffered records into a CRC-framed chunk past this size. */
constexpr size_t kChunkTargetBytes = size_t(1) << 20;

/** Names tried before a spill segment creation gives up on EEXIST. */
constexpr int kSpillNameAttempts = 16;

std::string
defaultSpillDir()
{
    const char *env = std::getenv("TMPDIR");
    if (env != nullptr && env[0] != '\0')
        return env;
    return "/tmp";
}

/** Process-wide serial that makes spill file names unique. */
uint64_t
nextSpillSerial()
{
    static std::atomic<uint64_t> counter{ 0 };
    return counter.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

/**
 * One logical segment: an optional on-disk prefix (chunks flushed
 * under memory pressure) followed by sealed in-memory chunks and the
 * currently-open record buffer. Readers see disk chunks first, then
 * memory chunks — exactly the append order.
 */
struct StreamingClusterer::Segment
{
    std::string path;            //!< Spill file name, for messages.
    std::FILE *file = nullptr;   //!< Open read/write once spilled.
    size_t fileBytes = 0;        //!< Chunk bytes flushed to disk.
    std::vector<uint8_t> chunks; //!< Sealed, CRC-framed chunks.
    ByteWriter open;             //!< Records of the unsealed chunk.

    Segment() = default;
    Segment(const Segment &) = delete;
    Segment &operator=(const Segment &) = delete;

    /** The spill file goes with the segment, error paths included. */
    ~Segment() { discard(); }

    /**
     * Close the spill file and free every buffer. The file was
     * unlinked when it was created, so closing it frees its blocks.
     */
    void
    discard()
    {
        if (file != nullptr) {
            std::fclose(file);
            file = nullptr;
        }
        path.clear();
        fileBytes = 0;
        chunks.clear();
        chunks.shrink_to_fit();
        open = ByteWriter();
    }
};

/** What survives a shard's greedy pass into the serial merge. */
struct StreamingClusterer::ShardResult
{
    std::vector<size_t> repIds;
    StrandArena reps;
    std::vector<std::vector<size_t>> members;
};

StreamingClusterer::StreamingClusterer(const ClusterParams &params)
    : params_(params),
      spillDir_(params.spillDir.empty() ? defaultSpillDir()
                                        : params.spillDir),
      log_(std::make_unique<Segment>())
{
    if (const char *err = params.check())
        throw std::invalid_argument(std::string("ClusterParams: ") + err);
}

StreamingClusterer::~StreamingClusterer() = default;

void
StreamingClusterer::appendRecord(Segment &seg, uint64_t id,
                                 uint64_t minimizer, StrandView read)
{
    size_t before = seg.open.size();
    seg.open.u64(id);
    seg.open.u64(minimizer);
    seg.open.u32(uint32_t(read.size()));
    size_t n_words = packedWordCount(read.size());
    packScratch_.resize(n_words);
    packBases(read.data(), read.size(), packScratch_.data());
    for (size_t w = 0; w < n_words; ++w)
        seg.open.u64(packScratch_[w]);
    bufferedBytes_ += seg.open.size() - before;
    stats_.peakBufferBytes =
        std::max(stats_.peakBufferBytes, bufferedBytes_);
    if (seg.open.size() >= kChunkTargetBytes)
        sealChunk(seg);
}

void
StreamingClusterer::sealChunk(Segment &seg)
{
    if (seg.open.size() == 0)
        return;
    std::vector<uint8_t> payload = seg.open.take();
    // Framing adds the 12-byte header; budget accounting follows the
    // buffered bytes wherever they live.
    bufferedBytes_ += 12;
    appendSpillChunk(seg.chunks, payload.data(), payload.size());
    seg.open = ByteWriter();
}

void
StreamingClusterer::spillToDisk(Segment &seg)
{
    sealChunk(seg);
    if (seg.chunks.empty())
        return;
    if (seg.file == nullptr) {
        // A fresh name under O_EXCL | O_NOFOLLOW, so a file or symlink
        // planted at it is never written through, and mode 0600, so
        // other users cannot read the reads. Unlinking it at once
        // leaves nothing behind, even when the process crashes.
        int fd = -1;
        for (int attempt = 0; fd < 0; ++attempt) {
            seg.path = spillDir_ + "/dnastream-" +
                std::to_string(getpid()) + "-" +
                std::to_string(nextSpillSerial()) + ".spill";
            fd = ::open(seg.path.c_str(),
                        O_RDWR | O_CREAT | O_EXCL | O_NOFOLLOW | O_CLOEXEC,
                        0600);
            if (fd < 0 &&
                (errno != EEXIST || attempt + 1 == kSpillNameAttempts))
                throw SpillError("cannot create spill segment " +
                                 seg.path + ": " + errnoText(errno));
        }
        ::unlink(seg.path.c_str());
        seg.file = ::fdopen(fd, "w+b");
        if (seg.file == nullptr) {
            const int err = errno;
            ::close(fd);
            throw SpillError("cannot open spill segment " + seg.path +
                             ": " + errnoText(err));
        }
    }
    if (std::fwrite(seg.chunks.data(), 1, seg.chunks.size(),
                    seg.file) != seg.chunks.size())
        throw SpillError("short write to spill segment " + seg.path);
    seg.fileBytes += seg.chunks.size();
    stats_.spilledBytes += seg.chunks.size();
    ++stats_.spillChunks;
    bufferedBytes_ -= seg.chunks.size();
    seg.chunks.clear();
    seg.chunks.shrink_to_fit();
}

void
StreamingClusterer::enforceBudget(std::vector<Segment> &segs)
{
    if (params_.memoryBudgetBytes == 0 ||
        bufferedBytes_ <= params_.memoryBudgetBytes)
        return;
    // Deterministic and simple: flush every segment with sealed or
    // open bytes. The schedule can never change a clustering — only
    // where the same bytes wait.
    for (auto &seg : segs)
        spillToDisk(seg);
}

void
StreamingClusterer::releaseSegment(Segment &seg)
{
    bufferedBytes_ -= seg.chunks.size() + seg.open.size();
    seg.discard();
}

void
StreamingClusterer::forEachRecord(
    Segment &seg,
    const std::function<void(uint64_t, uint64_t, size_t,
                             const uint64_t *)> &record)
{
    sealChunk(seg);
    if (seg.file != nullptr) {
        if (std::fflush(seg.file) != 0)
            throw SpillError("cannot flush spill segment " +
                             seg.path);
        if (std::fseek(seg.file, 0, SEEK_SET) != 0)
            throw SpillError("cannot rewind spill segment " +
                             seg.path);
        // Bounded read-back: one CRC-framed chunk at a time.
        std::vector<uint8_t> header(12), chunk;
        size_t consumed = 0;
        while (consumed < seg.fileBytes) {
            if (std::fread(header.data(), 1, 12, seg.file) != 12)
                throw SpillError("truncated spill chunk header in " +
                                 seg.path);
            ByteReader hr(header.data(), header.size());
            hr.skip(4); // magic, re-verified by parseSpillChunks
            uint32_t len = hr.u32();
            if (len > cluster_detail::kMaxChunkBytes * 2)
                throw SpillError(
                    "implausible spill chunk length in " + seg.path);
            chunk.resize(12 + len);
            std::memcpy(chunk.data(), header.data(), 12);
            if (std::fread(chunk.data() + 12, 1, len, seg.file) !=
                len)
                throw SpillError("truncated spill chunk in " +
                                 seg.path);
            cluster_detail::parseSpillChunks(chunk.data(),
                                             chunk.size(), record);
            consumed += 12 + len;
        }
    }
    cluster_detail::parseSpillChunks(seg.chunks.data(),
                                     seg.chunks.size(), record);
}

void
StreamingClusterer::add(StrandView read)
{
    if (finished_)
        throw std::logic_error(
            "StreamingClusterer::add after finish");
    uint64_t id = stats_.reads++;
    uint64_t minimizer =
        cluster_detail::minimizerOf(read, params_.qgram);
    appendRecord(*log_, id, minimizer, read);
    if (params_.memoryBudgetBytes != 0 &&
        bufferedBytes_ > params_.memoryBudgetBytes)
        spillToDisk(*log_);
}

Clustering
StreamingClusterer::finish()
{
    if (finished_)
        throw std::logic_error(
            "StreamingClusterer::finish called twice");
    finished_ = true;

    using cluster_detail::GreedyState;
    const size_t n = stats_.reads;
    const size_t shards =
        cluster_detail::resolveShardCount(params_, n);
    stats_.shards = shards;

    Strand unpacked;
    if (shards <= 1) {
        GreedyState state(params_);
        forEachRecord(*log_, [&](uint64_t id, uint64_t, size_t len,
                                 const uint64_t *words) {
            unpacked.resize(len);
            unpackBases(words, len, unpacked.data());
            state.consume(size_t(id), unpacked);
        });
        releaseSegment(*log_);
        return state.finalize(n);
    }

    // ---- Shuffle: stream the log into per-shard segments. Records
    // arrive in ingest (global-id) order and appends preserve it, so
    // every shard segment is id-ascending without sorting.
    std::vector<Segment> shard_segs(shards);
    forEachRecord(*log_, [&](uint64_t id, uint64_t minimizer,
                             size_t len, const uint64_t *words) {
        Segment &seg = shard_segs[minimizer % shards];
        size_t before = seg.open.size();
        seg.open.u64(id);
        seg.open.u64(minimizer);
        seg.open.u32(uint32_t(len));
        size_t n_words = packedWordCount(len);
        for (size_t w = 0; w < n_words; ++w)
            seg.open.u64(words[w]);
        bufferedBytes_ += seg.open.size() - before;
        stats_.peakBufferBytes =
            std::max(stats_.peakBufferBytes, bufferedBytes_);
        if (seg.open.size() >= kChunkTargetBytes)
            sealChunk(seg);
        enforceBudget(shard_segs);
    });
    releaseSegment(*log_);

    // Seal every shard's open chunk here, while still single-threaded:
    // sealChunk accounts into bufferedBytes_, which the concurrent
    // shard workers below must never touch. After this loop the
    // sealChunk call inside forEachRecord is a no-op for every shard,
    // so the workers read purely per-shard state.
    for (auto &seg : shard_segs)
        sealChunk(seg);

    // ---- Cluster each shard independently (the parallel part),
    // keeping only what the merge needs: representative ids +
    // strands and member lists. Shard segments are discarded the
    // moment their greedy pass ends; they deliberately skip
    // releaseSegment, which would also write shared accounting.
    // States come from a free list, reset after use, so an index
    // never regrows from empty; one per shard running at once.
    std::vector<ShardResult> results(shards);
    std::mutex free_mutex;
    std::vector<GreedyState> free_states;
    parallelFor(shards, params_.numThreads, [&](size_t s) {
        std::unique_lock<std::mutex> lock(free_mutex);
        if (free_states.empty())
            free_states.emplace_back(params_);
        GreedyState state = std::move(free_states.back());
        free_states.pop_back();
        lock.unlock();
        Strand local;
        forEachRecord(shard_segs[s],
                      [&](uint64_t id, uint64_t, size_t len,
                          const uint64_t *words) {
                          local.resize(len);
                          unpackBases(words, len, local.data());
                          state.consume(size_t(id), local);
                      });
        ShardResult &out = results[s];
        size_t clusters = state.clusterCount();
        out.repIds.reserve(clusters);
        out.members.reserve(clusters);
        for (size_t c = 0; c < clusters; ++c) {
            out.repIds.push_back(state.representativeId(c));
            out.reps.append(state.representativeStrand(c));
            out.members.push_back(std::move(state.membersOf(c)));
        }
        shard_segs[s].discard();
        state.reset();
        lock.lock();
        free_states.push_back(std::move(state));
    });
    shard_segs.clear();

    // ---- Serial deterministic merge, shard-major, so spill
    // schedules, thread counts, and SIMD tiers can never reach the
    // result. It reuses one shard state; the rest are freed before
    // it grows.
    GreedyState merged = std::move(free_states.front());
    free_states.clear();
    for (size_t s = 0; s < shards; ++s) {
        ShardResult &local = results[s];
        for (size_t c = 0; c < local.repIds.size(); ++c)
            merged.consumeGroup(local.repIds[c], local.reps.view(c),
                                std::move(local.members[c]));
        local = ShardResult();
    }
    return merged.finalize(n);
}

} // namespace dnastore
