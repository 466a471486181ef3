#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <dirent.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "channel/ids_channel.hh"
#include "cluster/clusterer.hh"
#include "cluster/gram_index.hh"
#include "cluster/greedy.hh"
#include "cluster/stream.hh"
#include "dna/primer.hh"
#include "fuzz_iters.hh"
#include "pipeline/config.hh"
#include "util/byteio.hh"
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

/**
 * A noisy interleaved soup with enough reads to shard. With
 * @p primers, every strand is framed by that pair, so the primer
 * grams are posted by every representative and become frequent.
 */
std::vector<Strand>
makeSoup(size_t n_strands, size_t copies, double error, uint64_t seed,
         const PrimerPair *primers = nullptr)
{
    Rng rng(seed);
    IdsChannel channel(ErrorModel::uniform(error));
    std::vector<Strand> originals;
    for (size_t s = 0; s < n_strands; ++s) {
        originals.push_back(randomStrand(100 + rng.nextBelow(30), rng));
        if (primers != nullptr)
            originals.back() = attachPrimers(*primers, originals.back());
    }
    std::vector<Strand> reads;
    for (size_t c = 0; c < copies; ++c)
        for (size_t s = 0; s < n_strands; ++s)
            reads.push_back(channel.transmit(originals[s], rng));
    return reads;
}

std::string
makeTempDir()
{
    char tmpl[] = "/tmp/dnastream-test-XXXXXX";
    const char *dir = mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    return dir ? dir : "/tmp";
}

size_t
entryCount(const std::string &dir)
{
    DIR *d = opendir(dir.c_str());
    if (d == nullptr)
        return size_t(-1);
    size_t n = 0;
    while (struct dirent *e = readdir(d)) {
        std::string name = e->d_name;
        if (name != "." && name != "..")
            ++n;
    }
    closedir(d);
    return n;
}

/** Remove @p dir and whatever a failed test left in it. */
void
removeTempDir(const std::string &dir)
{
    if (DIR *d = opendir(dir.c_str())) {
        while (struct dirent *e = readdir(d)) {
            std::string name = e->d_name;
            if (name != "." && name != "..")
                std::remove((dir + "/" + name).c_str());
        }
        closedir(d);
    }
    rmdir(dir.c_str());
}

TEST(StreamingCluster, MatchesPinnedReferenceClustering)
{
    // The independent reference: clusterOf for a fixed soup, recorded
    // from the standalone in-memory clusterer this engine replaced.
    // Read i is a noisy copy of strand i % 24; the pin lists the
    // reads that split off into clusters of their own. Every budget
    // and thread count must reproduce it exactly.
    auto reads = makeSoup(24, 5, 0.09, 310);
    ASSERT_EQ(reads.size(), 120u);
    struct Pin
    {
        size_t shards;
        std::vector<std::pair<size_t, size_t>> splits; // read, cluster
    };
    for (const Pin &pin : { Pin{ 0, { { 81, 24 } } },
                            Pin{ 5, { { 30, 24 }, { 102, 25 } } } }) {
        std::vector<size_t> expected(reads.size());
        for (size_t i = 0; i < reads.size(); ++i)
            expected[i] = i % 24;
        for (const auto &split : pin.splits)
            expected[split.first] = split.second;
        for (size_t budget : { size_t(0), size_t(4096) }) {
            for (size_t threads : { size_t(1), size_t(4) }) {
                SCOPED_TRACE("shards " + std::to_string(pin.shards) +
                             " budget " + std::to_string(budget) +
                             " threads " + std::to_string(threads));
                ClusterParams params;
                params.numShards = pin.shards;
                params.memoryBudgetBytes = budget;
                params.numThreads = threads;
                EXPECT_EQ(clusterReads(reads, params).clusterOf,
                          expected);
            }
        }
    }
}

TEST(SignatureFuzz, SelectionEqualsSortUniqueResize)
{
    // A capped signature hashes every gram once and sorts only the
    // hashes under a bound, falling back to every gram when fewer than
    // cap distinct ones pass; either way it must equal the sort +
    // unique + resize of every gram hash, including reads of repeated
    // grams (duplicates must not take a slot), reads shorter than q,
    // strand-length reads at every q up to 31, and caps at or past
    // the distinct-gram count. The unsorted DistinctGrams set must
    // hold exactly the sort + unique hashes, in first-occurrence
    // order.
    constexpr size_t kCap = cluster_detail::kQuerySignatureSlots;
    Rng rng(311), range_rng(312);
    std::vector<uint64_t> got;
    cluster_detail::DistinctGrams distinct;
    int forced_fallbacks = 0;
    for (int iter = 0; iter < fuzzIters(400); ++iter) {
        const size_t qgram = 1 + rng.nextBelow(31);
        Strand read;
        bool duplicate_heavy = false;
        switch (rng.nextBelow(5)) {
          case 0: // low complexity: a motif repeated, any length
            {
                Strand motif = randomStrand(1 + rng.nextBelow(3 * kCap), rng);
                for (size_t n = rng.nextBelow(1025); read.size() < n;)
                    read.insert(read.end(), motif.begin(), motif.end());
                break;
            }
          case 1:
            read = randomStrand(rng.nextBelow(qgram + 2), rng);
            break;
          case 2:
            read = randomStrand(rng.nextBelow(300), rng);
            break;
          case 3: // strand length
            read = randomStrand(455 + rng.nextBelow(570), rng);
            break;
          default: // strand length, fewer distinct grams than kCap
            {
                Strand motif = randomStrand(1 + rng.nextBelow(kCap - 1), rng);
                for (size_t n = 455 + rng.nextBelow(570); read.size() < n;)
                    read.insert(read.end(), motif.begin(), motif.end());
                duplicate_heavy = true;
            }
        }
        std::vector<uint64_t> all;
        cluster_detail::signatureInto(read, qgram, size_t(-1), all);
        std::vector<uint64_t> expected_all;
        for (size_t i = 0; i + qgram <= read.size(); ++i) {
            uint64_t gram = 0;
            for (size_t j = i; j < i + qgram; ++j)
                gram = (gram << 2) | bitsFromBase(read[j]);
            expected_all.push_back(cluster_detail::mixHash(gram));
        }
        std::sort(expected_all.begin(), expected_all.end());
        expected_all.erase(
            std::unique(expected_all.begin(), expected_all.end()),
            expected_all.end());
        ASSERT_EQ(all, expected_all) << "iter " << iter;
        // The sort-free routine behind openCluster: the same set, in
        // first-occurrence order, through one reused generation set.
        std::vector<uint64_t> first_seen;
        for (size_t i = 0; i + qgram <= read.size(); ++i) {
            uint64_t gram = 0;
            for (size_t j = i; j < i + qgram; ++j)
                gram = (gram << 2) | bitsFromBase(read[j]);
            const uint64_t h = cluster_detail::mixHash(gram);
            if (std::find(first_seen.begin(), first_seen.end(), h) ==
                first_seen.end())
                first_seen.push_back(h);
        }
        distinct.collect(read, qgram, 0, ~uint64_t(0), got);
        ASSERT_EQ(got, first_seen) << "iter " << iter;
        // A hash range keeps exactly the grams inside it, in order.
        uint64_t lo = range_rng.next(), hi = range_rng.next();
        if (lo > hi)
            std::swap(lo, hi);
        std::vector<uint64_t> in_range;
        for (uint64_t h : first_seen)
            if (h >= lo && h <= hi)
                in_range.push_back(h);
        std::vector<uint64_t> ranged;
        distinct.collect(read, qgram, lo, hi, ranged);
        ASSERT_EQ(ranged, in_range) << "iter " << iter;
        std::sort(got.begin(), got.end());
        ASSERT_EQ(got, expected_all) << "iter " << iter;
        if (duplicate_heavy) {
            // More than 2 kCap + 16 grams arm the bound, and a period
            // below kCap leaves fewer than kCap distinct hashes, so no
            // bound can fill the signature: the exact path runs.
            ASSERT_GT(read.size() - qgram + 1, 2 * kCap + 16);
            ASSERT_LT(all.size(), kCap);
            ++forced_fallbacks;
        }
        for (size_t cap : { size_t(1), size_t(4), size_t(24), kCap,
                            all.size(), all.size() + 1,
                            size_t(rng.nextBelow(all.size() + 2)) }) {
            std::vector<uint64_t> expected(
                all.begin(), all.begin() + long(std::min(cap, all.size())));
            cluster_detail::signatureInto(read, qgram, cap, got);
            EXPECT_EQ(got, expected)
                << "iter " << iter << " cap " << cap << " q " << qgram;
        }
    }
    if (fuzzIters(400) >= 50) {
        EXPECT_GT(forced_fallbacks, 0);
    }
}

TEST(SignatureFuzz, DistinctGramsKeepsFingerprintCollidingGrams)
{
    // Two 12-grams whose hashes differ but share a 32-bit GramIndex
    // fingerprint, their top 32 bits (the first such pair in
    // fingerprint order, found by exhaustive search). A dedupe keyed
    // by fingerprint would drop the second and lose its posting.
    const Strand read =
        strandFromString(std::string("AACACTACATTA") + "TTCTATATGGTG");
    auto gramHash = [&](size_t at) {
        uint64_t gram = 0;
        for (size_t j = at; j < at + 12; ++j)
            gram = (gram << 2) | bitsFromBase(read[j]);
        return cluster_detail::mixHash(gram);
    };
    const uint64_t a = gramHash(0), b = gramHash(12);
    ASSERT_NE(a, b);
    ASSERT_EQ(GramIndex::fingerprint(a), GramIndex::fingerprint(b));

    std::vector<uint64_t> got;
    cluster_detail::DistinctGrams distinct;
    distinct.collect(read, 12, 0, ~uint64_t(0), got);
    EXPECT_EQ(got.size(), 13u);
    EXPECT_EQ(got.front(), a);
    EXPECT_EQ(got.back(), b);
}

TEST(StreamingCluster, MatchesPinnedBenchScaleClustering)
{
    // The benchmark's shape: benchScale-length strands that all share
    // one primer pair, 5% IDS, qgram 12, and enough reads that the
    // shards and the serial shard merge both run. Read i is a noisy
    // copy of strand i % 256; the pin lists the reads that land
    // anywhere else, as recorded before candidate verification was
    // bounded. Any change to the greedy decisions moves it.
    const StorageConfig cfg = StorageConfig::benchScale();
    const PrimerPair primers = makePrimerPair(1, cfg.primerLen);
    const size_t n_strands = 256, copies = 10;
    Rng rng(1300);
    IdsChannel channel(ErrorModel::uniform(0.05));
    std::vector<Strand> originals;
    for (size_t s = 0; s < n_strands; ++s)
        originals.push_back(attachPrimers(
            primers, randomStrand(cfg.strandLen() - 2 * cfg.primerLen,
                                  rng)));
    std::vector<Strand> reads;
    for (size_t c = 0; c < copies; ++c)
        for (size_t s = 0; s < n_strands; ++s)
            reads.push_back(channel.transmit(originals[s], rng));

    ClusterParams params;
    params.qgram = 12;
    ASSERT_GT(cluster_detail::resolveShardCount(params, reads.size()),
              1u);
    const std::vector<std::pair<size_t, size_t>> splits = {
        { 340, 256 },  { 596, 256 },  { 714, 257 },  { 826, 258 },
        { 837, 259 },  { 852, 260 },  { 970, 257 },  { 1020, 261 },
        { 1108, 256 }, { 1414, 262 }, { 1482, 257 }, { 1532, 261 },
        { 1620, 256 }, { 1738, 257 }, { 1788, 261 }, { 1850, 258 },
        { 1876, 256 }, { 1994, 257 }, { 2044, 261 }, { 2132, 256 },
        { 2388, 256 },
    };
    std::vector<size_t> expected(reads.size());
    for (size_t i = 0; i < reads.size(); ++i)
        expected[i] = i % n_strands;
    for (const auto &split : splits)
        expected[split.first] = split.second;
    Clustering got = clusterReads(reads, params);
    EXPECT_EQ(got.count(), 263u);
    EXPECT_EQ(got.clusterOf, expected);
}

/** The 20-base primer pair the primer-framed soups share. */
const PrimerPair &
soupPrimers()
{
    static const PrimerPair primers = makePrimerPair(3, 20);
    return primers;
}

/**
 * Whether some read's query signature (as the clusterer takes it)
 * holds a gram of the soup primers: the precondition for the
 * frequent-gram rule to fire at all.
 */
bool
someSignatureHoldsAPrimerGram(const std::vector<Strand> &reads,
                              size_t qgram)
{
    std::vector<uint64_t> primer, grams, sig;
    for (const Strand *p :
         { &soupPrimers().forward, &soupPrimers().backward }) {
        cluster_detail::signatureInto(*p, qgram, size_t(-1), grams);
        primer.insert(primer.end(), grams.begin(), grams.end());
    }
    for (const Strand &read : reads) {
        cluster_detail::signatureInto(
            read, qgram, cluster_detail::kQuerySignatureSlots, sig);
        for (uint64_t h : sig)
            if (std::find(primer.begin(), primer.end(), h) !=
                primer.end())
                return true;
    }
    return false;
}

TEST(StreamingCluster, BitIdenticalAcrossBudgetsAndThreads)
{
    // The engine's whole contract: for every memory budget (spilling
    // or not), thread count, and shard schedule, the clustering is
    // byte-identical to the serial run with no budget — also on a
    // primer-framed soup, where the frequent-gram rule fires.
    for (bool framed : { false, true }) {
        auto reads = makeSoup(60, 8, 0.07, 301,
                              framed ? &soupPrimers() : nullptr);
        if (framed) {
            ASSERT_TRUE(someSignatureHoldsAPrimerGram(reads, 6));
        }
        for (size_t shards : { size_t(0), size_t(5), size_t(13) }) {
            ClusterParams unbudgeted;
            unbudgeted.numShards = shards;
            Clustering base = clusterReads(reads, unbudgeted);

            for (size_t budget : { size_t(1) << 30, size_t(4096) }) {
                for (size_t threads : { size_t(1), size_t(4),
                                        size_t(8) }) {
                    SCOPED_TRACE(std::string(framed ? "framed" : "bare") +
                                 " shards " + std::to_string(shards) +
                                 " budget " + std::to_string(budget) +
                                 " threads " + std::to_string(threads));
                    ClusterParams streaming = unbudgeted;
                    streaming.memoryBudgetBytes = budget;
                    streaming.numThreads = threads;
                    Clustering got = clusterReads(reads, streaming);
                    EXPECT_EQ(got.clusterOf, base.clusterOf);
                    EXPECT_EQ(got.members, base.members);
                }
            }
        }
    }
}

TEST(StreamingCluster, FuzzBudgetsAgainstUnbudgeted)
{
    // Randomized soups and parameters; every budgeted, threaded run
    // must reproduce the serial unbudgeted clustering exactly. Each
    // draw runs primer-less and primer-framed (the frequent-gram
    // rule fires on the latter).
    Rng rng(302);
    bool rule_reachable = false;
    for (int iter = 0; iter < fuzzIters(12); ++iter) {
        const size_t n_strands = 10 + rng.nextBelow(30);
        const size_t copies = 2 + rng.nextBelow(6);
        const double error = 0.02 + 0.01 * double(rng.nextBelow(8));
        ClusterParams params;
        params.numShards = rng.nextBelow(9);
        ClusterParams streaming = params;
        streaming.memoryBudgetBytes = 1 + rng.nextBelow(32768);
        streaming.numThreads = 1 + rng.nextBelow(8);
        for (bool framed : { false, true }) {
            auto reads = makeSoup(n_strands, copies, error,
                                  400 + uint64_t(iter),
                                  framed ? &soupPrimers() : nullptr);
            if (framed)
                rule_reachable = rule_reachable ||
                    someSignatureHoldsAPrimerGram(reads, params.qgram);
            Clustering base = clusterReads(reads, params);
            Clustering got = clusterReads(reads, streaming);
            EXPECT_EQ(got.clusterOf, base.clusterOf)
                << "iter " << iter << (framed ? " framed" : "");
            EXPECT_EQ(got.members, base.members)
                << "iter " << iter << (framed ? " framed" : "");
        }
    }
    EXPECT_TRUE(rule_reachable);
}

TEST(StreamingCluster, ParallelShardFinishHasNoSharedSealing)
{
    // Regression: sealChunk() accounts into the engine-wide
    // bufferedBytes_ counter, and forEachRecord() seals its segment's
    // open chunk before replaying it. finish() used to reach that
    // seal concurrently from every shard worker — a data race on the
    // counter, caught by ThreadSanitizer. Open chunks must be sealed
    // serially before the parallel phase. This pins the racy shape:
    // many shards whose buffers are still open entering a maximally
    // threaded finish (generous budget, so nothing spilled or sealed
    // early), repeated a few rounds, bit-identical to the serial
    // unbudgeted clustering throughout. Run under TSan this fails on any
    // reintroduction of shared sealing.
    auto reads = makeSoup(80, 6, 0.06, 309);

    ClusterParams unbudgeted;
    unbudgeted.numShards = 16;
    Clustering base = clusterReads(reads, unbudgeted);

    for (int round = 0; round < 4; ++round) {
        ClusterParams streaming = unbudgeted;
        streaming.memoryBudgetBytes = size_t(1) << 30;
        streaming.numThreads = 8;
        StreamingClusterer engine(streaming);
        for (const auto &r : reads)
            engine.add(r);
        Clustering got = engine.finish();
        EXPECT_EQ(got.clusterOf, base.clusterOf) << "round " << round;
        EXPECT_EQ(got.members, base.members) << "round " << round;
        EXPECT_EQ(engine.stats().spilledBytes, 0u);
        EXPECT_EQ(engine.stats().shards, 16u);
    }
}

TEST(StreamingCluster, SpillsUnderTinyBudgetAndCleansUp)
{
    auto reads = makeSoup(40, 6, 0.05, 303);
    std::string dir = makeTempDir();

    {
        ClusterParams params;
        params.memoryBudgetBytes = 4096;
        params.spillDir = dir;
        StreamingClusterer engine(params);
        for (const auto &r : reads)
            engine.add(r);
        Clustering got = engine.finish();
        EXPECT_EQ(got.clusterOf.size(), reads.size());

        const StreamStats &stats = engine.stats();
        EXPECT_EQ(stats.reads, reads.size());
        EXPECT_GT(stats.spilledBytes, 0u);
        EXPECT_GT(stats.spillChunks, 0u);
        EXPECT_GE(stats.shards, 1u);
    }
    // Every spill segment is removed when the engine dies.
    EXPECT_EQ(entryCount(dir), 0u);
    rmdir(dir.c_str());
}

TEST(StreamingCluster, SpillSegmentsNeverShowInTheSpillDir)
{
    // Regression: spill segments used to be named files in the spill
    // directory until the engine died, so a crashed run left them
    // behind (world-readable under the default umask). They are now
    // unlinked as soon as they are created.
    auto reads = makeSoup(40, 6, 0.05, 313);
    std::string dir = makeTempDir();
    {
        ClusterParams params;
        params.memoryBudgetBytes = 4096;
        params.spillDir = dir;
        StreamingClusterer engine(params);
        size_t added = 0;
        while (added < reads.size() && engine.stats().spilledBytes == 0)
            engine.add(reads[added++]);
        ASSERT_GT(engine.stats().spilledBytes, 0u);
        EXPECT_EQ(entryCount(dir), 0u) << "spill segment visible in "
                                       << dir << " before finish()";
        while (added < reads.size())
            engine.add(reads[added++]);
        EXPECT_EQ(engine.finish().clusterOf.size(), reads.size());
    }
    EXPECT_EQ(entryCount(dir), 0u);
    removeTempDir(dir);
}

TEST(StreamingCluster, GenerousBudgetNeverTouchesDisk)
{
    auto reads = makeSoup(20, 4, 0.05, 304);
    ClusterParams params;
    params.memoryBudgetBytes = size_t(1) << 30;
    params.spillDir = "/nonexistent/never-consulted";
    StreamingClusterer engine(params);
    for (const auto &r : reads)
        engine.add(r);
    engine.finish();
    EXPECT_EQ(engine.stats().spilledBytes, 0u);
    EXPECT_EQ(engine.stats().spillChunks, 0u);
    EXPECT_GT(engine.stats().peakBufferBytes, 0u);
}

TEST(StreamingCluster, UnwritableSpillDirIsACleanError)
{
    ClusterParams params;
    params.memoryBudgetBytes = 1; // spill on the first read
    params.spillDir = "/nonexistent-dnastore-dir/spill";
    StreamingClusterer engine(params);
    Rng rng(305);
    Strand read = randomStrand(120, rng);
    EXPECT_THROW(engine.add(read), SpillError);
}

TEST(StreamingCluster, ShardSpillErrorRemovesEverySegment)
{
    // Regression: a SpillError during the shuffle used to leave every
    // shard's spill file (and FILE*) behind, because only the ingest
    // log was released on the way out. The log here fits the budget
    // and stays in memory; the shard segments outgrow it and spill
    // into files capped by RLIMIT_FSIZE, so a shard write comes up
    // short. rlimits are per process, hence the forked child.
    auto reads = makeSoup(100, 30, 0.05, 312);
    std::string dir = makeTempDir();

    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        std::signal(SIGXFSZ, SIG_IGN); // fail the write, not the child
        struct rlimit cap = { 40 << 10, 40 << 10 };
        if (setrlimit(RLIMIT_FSIZE, &cap) != 0)
            _exit(4);
        int status = 1; // 1: no error, 2: wrong error type
        try {
            ClusterParams params;
            params.numShards = 2;     // ~80 KB per shard segment
            params.numThreads = 1;    // no pool workers in a fork
            params.memoryBudgetBytes = 200 << 10; // log ~160 KB
            params.spillDir = dir;
            StreamingClusterer engine(params);
            for (const auto &r : reads)
                engine.add(r);
            if (engine.stats().spilledBytes != 0)
                _exit(3); // the log spilled: not the shape under test
            engine.finish();
        } catch (const SpillError &) {
            status = 0;
        } catch (...) {
            status = 2;
        }
        _exit(status);
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << "0 = SpillError, 1 = none, 2 = other error, 3 = log spilled";
    EXPECT_EQ(entryCount(dir), 0u);

    removeTempDir(dir);
}

TEST(StreamingCluster, LifecycleMisuseThrows)
{
    StreamingClusterer engine(ClusterParams{});
    Rng rng(306);
    Strand read = randomStrand(50, rng);
    engine.add(read);
    engine.finish();
    EXPECT_THROW(engine.add(read), std::logic_error);
    EXPECT_THROW(engine.finish(), std::logic_error);
}

TEST(StreamingCluster, EmptyInput)
{
    StreamingClusterer engine(ClusterParams{});
    Clustering got = engine.finish();
    EXPECT_EQ(got.count(), 0u);
    EXPECT_TRUE(got.clusterOf.empty());
}

// ---------------------------------------------------------------------
// Spill chunk integrity: corruption must always surface as SpillError,
// never as a silently different record stream.

std::vector<uint8_t>
sampleChunkBytes()
{
    ByteWriter payload;
    Rng rng(307);
    for (uint64_t id = 0; id < 5; ++id) {
        size_t len = 40 + rng.nextBelow(60);
        payload.u64(id);
        payload.u64(rng.next());
        payload.u32(uint32_t(len));
        for (size_t w = 0; w < packedWordCount(len); ++w)
            payload.u64(rng.next());
    }
    std::vector<uint8_t> chunk;
    std::vector<uint8_t> raw = payload.take();
    cluster_detail::appendSpillChunk(chunk, raw.data(), raw.size());
    return chunk;
}

size_t
countRecords(const std::vector<uint8_t> &bytes)
{
    size_t records = 0;
    cluster_detail::parseSpillChunks(
        bytes.data(), bytes.size(),
        [&](uint64_t, uint64_t, size_t, const uint64_t *) {
            ++records;
        });
    return records;
}

TEST(SpillChunks, RoundTripParsesEveryRecord)
{
    EXPECT_EQ(countRecords(sampleChunkBytes()), 5u);
}

TEST(SpillChunks, EveryByteFlipIsDetected)
{
    // Flip every bit of every byte — header, CRC, and payload alike.
    // Magic/length flips fail framing; everything else fails the CRC.
    const std::vector<uint8_t> clean = sampleChunkBytes();
    for (size_t i = 0; i < clean.size(); ++i) {
        for (uint8_t bit : { uint8_t(0x01), uint8_t(0x80) }) {
            std::vector<uint8_t> corrupt = clean;
            corrupt[i] ^= bit;
            EXPECT_THROW(countRecords(corrupt), SpillError)
                << "byte " << i << " bit " << int(bit);
        }
    }
}

TEST(SpillChunks, EveryTruncationIsDetected)
{
    const std::vector<uint8_t> clean = sampleChunkBytes();
    // The empty prefix is a valid zero-chunk stream ...
    EXPECT_EQ(countRecords({}), 0u);
    // ... every other strict prefix must fail loudly.
    for (size_t n = 1; n < clean.size(); ++n) {
        std::vector<uint8_t> prefix(clean.begin(),
                                    clean.begin() + long(n));
        EXPECT_THROW(countRecords(prefix), SpillError) << "len " << n;
    }
}

TEST(SpillChunks, TrailingGarbageIsDetected)
{
    std::vector<uint8_t> bytes = sampleChunkBytes();
    bytes.push_back(0x5a);
    EXPECT_THROW(countRecords(bytes), SpillError);
}

// ---------------------------------------------------------------------
// Index equivalence: the prefetched batch insert must store exactly the
// postings a loop of one-key insertAll calls stores, grows and fingerprint
// collisions included.

/** Every cluster posted under @p key, in chain order. */
std::vector<size_t>
postings(const GramIndex &index, uint64_t key)
{
    std::vector<size_t> out;
    for (uint32_t e = index.head(key); e != 0; e = index.posting(e).next)
        out.push_back(index.posting(e).cluster);
    return out;
}

TEST(GramIndex, InsertAllMatchesInsertLoopAndReference)
{
    Rng rng(313);
    GramIndex batched, looped;
    // Reference: postings per fingerprint, since colliding keys share
    // one chain by design.
    std::map<uint32_t, std::vector<size_t>> reference;
    std::vector<uint64_t> probes;
    std::vector<uint64_t> keys;
    for (size_t cluster = 0; cluster < 40; ++cluster) {
        keys.clear();
        // Batches of up to ~1900 keys from 1024 initial slots, grown
        // at 1/2 load: the slot array doubles mid-batch many times.
        const size_t n = cluster == 0 ? 0 : rng.nextBelow(1500);
        for (size_t i = 0; i < n; ++i) {
            const uint64_t k = rng.next();
            keys.push_back(k);
            switch (rng.nextBelow(4)) {
              case 0: // forced fingerprint collision: same top half
                keys.push_back(k ^ (rng.next() & 0xffffffffu));
                break;
              case 1: // repeated key within the batch
                keys.push_back(k);
                break;
              default:
                break;
            }
        }
        batched.insertAll(keys.data(), keys.size(), cluster);
        for (uint64_t k : keys) {
            looped.insertAll(&k, 1, cluster);
            reference[GramIndex::fingerprint(k)].push_back(cluster);
        }
        probes.insert(probes.end(), keys.begin(), keys.end());
    }
    for (int i = 0; i < 1000; ++i)
        probes.push_back(rng.next()); // almost surely never indexed

    // Each key's chain must hold its fingerprint's every posting, so
    // a fingerprint split over two slots would fail here too.
    std::vector<size_t> expected;
    for (uint64_t k : probes) {
        std::vector<size_t> got = postings(batched, k);
        std::vector<size_t> want = postings(looped, k);
        std::sort(got.begin(), got.end());
        std::sort(want.begin(), want.end());
        auto it = reference.find(GramIndex::fingerprint(k));
        expected.clear();
        if (it != reference.end())
            expected = it->second; // ascending: clusters go in order
        ASSERT_EQ(got, want) << "key " << k;
        ASSERT_EQ(got, expected) << "key " << k;
    }
}

TEST(GramIndex, ChainsAreNewestFirst)
{
    // The gather stops a frequent chain's walk below its lowest
    // nominee, which is exact only if a chain lists its postings
    // newest first: with clusters inserted in ascending id order, ids
    // never increase along a chain. Keys are drawn from a small pool
    // so chains grow long, with repeats within a batch and forced
    // fingerprint collisions (same top 32 bits) merging chains.
    Rng rng(319);
    std::vector<uint64_t> pool(64);
    for (uint64_t &k : pool)
        k = rng.next();
    for (size_t i = 0; i < 8; ++i)
        pool.push_back(pool[i] ^ (rng.next() & 0xffffffffu));
    GramIndex index;
    std::map<uint32_t, std::vector<size_t>> reference; // oldest first
    std::vector<uint64_t> keys;
    for (size_t cluster = 0; cluster < 300; ++cluster) {
        keys.clear();
        for (size_t i = rng.nextBelow(40); i > 0; --i)
            keys.push_back(pool[rng.nextBelow(pool.size())]);
        index.insertAll(keys.data(), keys.size(), cluster);
        for (uint64_t k : keys)
            reference[GramIndex::fingerprint(k)].push_back(cluster);
    }
    for (uint64_t k : pool) {
        const std::vector<size_t> got = postings(index, k);
        std::vector<size_t> want = reference[GramIndex::fingerprint(k)];
        std::reverse(want.begin(), want.end());
        ASSERT_EQ(got, want) << "key " << k;
        ASSERT_TRUE(std::is_sorted(got.rbegin(), got.rend()))
            << "key " << k;
    }
    EXPECT_TRUE(postings(index, rng.next()).empty());
}

TEST(GramIndex, ClearedIndexMatchesFreshIndex)
{
    // A cleared index keeps its grown slot arrays; every lookup and
    // the key count must still match a fresh index fed the same
    // batches, and nothing from before clear() may show.
    Rng rng(317);
    auto batch = [&rng](size_t n) {
        std::vector<uint64_t> keys(n);
        for (uint64_t &k : keys)
            k = rng.next();
        if (n > 1)
            keys[n - 1] = keys[0]; // a repeat within the batch
        return keys;
    };
    GramIndex reused, fresh;
    std::vector<uint64_t> probes;
    for (size_t cluster = 0; cluster < 30; ++cluster) {
        const std::vector<uint64_t> keys = batch(2000);
        reused.insertAll(keys.data(), keys.size(), cluster);
        probes.insert(probes.end(), keys.begin(), keys.end());
    }
    reused.clear();
    for (uint64_t k : probes)
        ASSERT_TRUE(postings(reused, k).empty()) << "key " << k;
    for (size_t cluster = 0; cluster < 12; ++cluster) {
        const std::vector<uint64_t> keys = batch(rng.nextBelow(900));
        reused.insertAll(keys.data(), keys.size(), cluster);
        fresh.insertAll(keys.data(), keys.size(), cluster);
        probes.insert(probes.end(), keys.begin(), keys.end());
    }
    for (uint64_t k : probes) // chain order too; old keys stay empty
        ASSERT_EQ(postings(reused, k), postings(fresh, k)) << "key " << k;
}

TEST(GreedyState, ResetStateClustersLikeAFreshOne)
{
    // The shard pass reuses one state across shards. After reset(), a
    // state that clustered soup A must cluster soup B exactly like a
    // fresh state: same representatives, members and final
    // clustering, with primer (frequent) grams and index grows in
    // play.
    const PrimerPair primers =
        makePrimerPair(3, StorageConfig::benchScale().primerLen);
    const std::vector<Strand> soup_a = makeSoup(120, 4, 0.05, 41, &primers);
    const std::vector<Strand> soup_b = makeSoup(70, 5, 0.06, 42, &primers);
    for (size_t qgram : { size_t(6), size_t(12) }) {
        ClusterParams params;
        params.qgram = qgram;
        cluster_detail::GreedyState fresh(params), reused(params);
        for (size_t i = 0; i < soup_a.size(); ++i)
            reused.consume(i, soup_a[i]);
        reused.reset();
        ASSERT_EQ(reused.clusterCount(), 0u);
        for (size_t i = 0; i < soup_b.size(); ++i) {
            fresh.consume(i, soup_b[i]);
            reused.consume(i, soup_b[i]);
        }
        const std::string at = "q " + std::to_string(qgram);
        ASSERT_EQ(reused.clusterCount(), fresh.clusterCount()) << at;
        for (size_t c = 0; c < fresh.clusterCount(); ++c) {
            ASSERT_EQ(reused.representativeId(c),
                      fresh.representativeId(c)) << at;
            ASSERT_EQ(reused.representativeStrand(c),
                      fresh.representativeStrand(c)) << at;
            ASSERT_EQ(reused.membersOf(c), fresh.membersOf(c)) << at;
        }
        const Clustering want = fresh.finalize(soup_b.size());
        const Clustering got = reused.finalize(soup_b.size());
        EXPECT_EQ(got.clusterOf, want.clusterOf) << at;
        EXPECT_EQ(got.members, want.members) << at;
    }
}

// ---------------------------------------------------------------------
// Shard resolution: content-only sizing at ~512 reads per shard, no
// ceiling, explicit counts honored.

TEST(ResolveShardCount, UncappedContentOnlySizing)
{
    ClusterParams params; // numShards = 0 (auto)
    using cluster_detail::resolveShardCount;
    EXPECT_EQ(resolveShardCount(params, 0), 1u);
    EXPECT_EQ(resolveShardCount(params, 2047), 1u);
    EXPECT_EQ(resolveShardCount(params, 2048), 4u);
    EXPECT_EQ(resolveShardCount(params, 10000), 19u);
    EXPECT_EQ(resolveShardCount(params, 32768), 64u);
    // The old 64-shard ceiling is gone: big soups keep ~512
    // reads/shard instead of serializing into giant greedy passes.
    EXPECT_EQ(resolveShardCount(params, 100000), 195u);
    EXPECT_EQ(resolveShardCount(params, 10000000), 19531u);

    params.numShards = 7;
    EXPECT_EQ(resolveShardCount(params, 100), 7u);
    EXPECT_EQ(resolveShardCount(params, 3), 3u);
    EXPECT_EQ(resolveShardCount(params, 0), 1u);
}

} // namespace
} // namespace dnastore
