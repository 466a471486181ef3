/**
 * @file
 * Hot-path performance report: measures ns/op for the simulator's
 * performance-critical substrates and emits machine-readable JSON
 * (the BENCH_*.json files at the repo root are past before/after
 * records of these rows).
 *
 * Baselines are measured by building this file at the parent
 * revision, which has every API it uses.
 *
 * Flags:
 *   --out FILE        Write the JSON report to FILE (default stdout).
 *   --min-time-ms N   Target measuring time per bench (default 300).
 *   --quick           One timed iteration per bench (CI smoke mode).
 *   --only SUBSTR     Run only benches whose name contains SUBSTR.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/api.hh"
#include "channel/ids_channel.hh"
#include "cluster/clusterer.hh"
#include "cluster/stream.hh"
#include "consensus/bma.hh"
#include "consensus/two_sided.hh"
#include "dna/packed_strand.hh"
#include "dna/strand.hh"
#include "ecc/gf.hh"
#include "ecc/rs.hh"
#include "lab/scenario.hh"
#include "pipeline/bundle.hh"
#include "pipeline/simulator.hh"
#include "util/parse.hh"
#include "util/rng.hh"


namespace dnastore {
namespace {

volatile uint64_t g_sink; // defeat dead-code elimination

struct BenchResult
{
    std::string name;
    double nsPerOp;
    uint64_t iters;
};

struct Options
{
    const char *out = nullptr;
    double minTimeMs = 300.0;
    bool quick = false;
    const char *only = nullptr;
};

double
nowNs()
{
    using namespace std::chrono;
    return double(duration_cast<nanoseconds>(
                      steady_clock::now().time_since_epoch())
                      .count());
}

/** Run @p op repeatedly until the time target is met; report ns/op. */
BenchResult
runBench(const char *name, const Options &opt,
         const std::function<void()> &op)
{
    op(); // warm caches, scratch buffers, and page in tables
    if (opt.quick) {
        double t0 = nowNs();
        op();
        double t1 = nowNs();
        return { name, t1 - t0, 1 };
    }
    const double target_ns = opt.minTimeMs * 1e6;
    uint64_t iters = 0;
    uint64_t batch = 1;
    double elapsed = 0;
    while (elapsed < target_ns) {
        double t0 = nowNs();
        for (uint64_t i = 0; i < batch; ++i)
            op();
        double t1 = nowNs();
        elapsed += t1 - t0;
        iters += batch;
        if (batch < (uint64_t(1) << 20))
            batch *= 2;
    }
    return { name, elapsed / double(iters), iters };
}

Strand
randomStrand(size_t len, Rng &rng)
{
    Strand s(len);
    for (auto &b : s)
        b = baseFromBits(unsigned(rng.nextBelow(4)));
    return s;
}

FileBundle
randomBundle(size_t bytes, Rng &rng)
{
    std::vector<uint8_t> data(bytes);
    for (auto &x : data)
        x = uint8_t(rng.next());
    FileBundle bundle;
    bundle.add("payload.bin", std::move(data));
    return bundle;
}

void
collect(std::vector<BenchResult> &results, const Options &opt)
{
    auto wants = [&opt](const char *name) {
        return opt.only == nullptr ||
            std::string(name).find(opt.only) != std::string::npos;
    };
    auto add = [&](const char *name,
                   const std::function<void()> &op) {
        if (wants(name))
            results.push_back(runBench(name, opt, op));
    };
    // Heavy benches (minutes per op): always a single timed
    // iteration with no warmup, and skipped entirely in --quick smoke
    // mode unless --only names them explicitly.
    auto addHeavy = [&](const char *name,
                        const std::function<void()> &op) {
        if (!wants(name))
            return;
        if (opt.quick && opt.only == nullptr)
            return;
        double t0 = nowNs();
        op();
        double t1 = nowNs();
        results.push_back({ name, t1 - t0, 1 });
    };

    // --- Galois field multiply (bench-scale and paper-scale fields).
    for (unsigned m : { 10u, 16u }) {
        GaloisField gf(m);
        Rng rng(1);
        uint32_t a = 1 + uint32_t(rng.nextBelow(gf.order()));
        uint32_t b = 1 + uint32_t(rng.nextBelow(gf.order()));
        std::string name = "gf_mul_m" + std::to_string(m);
        add(name.c_str(), [gf = std::move(gf), a, b]() mutable {
            // 1024 dependent multiplies per op to swamp loop overhead.
            uint32_t x = a;
            for (int i = 0; i < 1024; ++i)
                x = gf.mul(x, b) | 1;
            g_sink ^= x;
        });
    }

    // --- Reed-Solomon at the default operating point: GF(2^10),
    // E = 188 (18.4% redundancy), as benchScale() uses.
    {
        GaloisField gf(10);
        ReedSolomon rs(gf, 188);
        Rng rng(2);
        std::vector<uint32_t> data(rs.k());
        for (auto &d : data)
            d = uint32_t(rng.nextBelow(gf.size()));
        auto clean = rs.encode(data);

        add("rs_encode_m10", [&rs, &data]() {
            g_sink ^= rs.encode(data)[0];
        });

        std::vector<uint32_t> buf = clean;
        add("rs_decode_clean_m10", [&rs, &buf]() {
            g_sink ^= uint64_t(rs.decode(buf).success);
        });

        auto noisy10 = clean;
        {
            Rng r2(3);
            for (size_t e = 0; e < 10; ++e)
                noisy10[r2.nextBelow(noisy10.size())] ^= 1;
        }
        std::vector<uint32_t> work;
        add("rs_decode_err10_m10", [&rs, &noisy10, &work]() {
            work = noisy10;
            g_sink ^= uint64_t(rs.decode(work).success);
        });

        std::vector<size_t> erasures;
        for (size_t i = 0; i < 20; ++i)
            erasures.push_back(i * 37);
        auto erased = clean;
        for (size_t pos : erasures)
            erased[pos] ^= 0x3f;
        add("rs_decode_erasures20_m10",
            [&rs, &erased, &erasures, &work]() {
                work = erased;
                g_sink ^= uint64_t(rs.decode(work, erasures).success);
            });
    }

    // --- Paper-scale field: clean-codeword decode over GF(2^16).
    {
        GaloisField gf(16);
        ReedSolomon rs(gf, 32);
        Rng rng(4);
        std::vector<uint32_t> data(rs.k());
        for (auto &d : data)
            d = uint32_t(rng.nextBelow(gf.size()));
        // A clean decode leaves the buffer untouched, so it is safely
        // reused across iterations.
        std::vector<uint32_t> buf = rs.encode(data);
        add("rs_decode_clean_m16", [&rs, &buf]() {
            g_sink ^= uint64_t(rs.decode(buf).success);
        });
    }

    // --- IDS channel transmission, default strand geometry.
    {
        IdsChannel channel(ErrorModel::uniform(0.05));
        Rng rng(5);
        Strand strand = randomStrand(455, rng);
        add("ids_transmit_455", [&channel, &strand, &rng]() {
            g_sink ^= channel.transmit(strand, rng).size();
        });
    }

    // --- Edit distance between two noisy 455-base strands.
    {
        IdsChannel channel(ErrorModel::uniform(0.05));
        Rng rng(6);
        Strand original = randomStrand(455, rng);
        Strand a = channel.transmit(original, rng);
        Strand b = channel.transmit(original, rng);
        add("edit_distance_455", [&a, &b]() {
            g_sink ^= editDistance(a, b);
        });
    }

    // --- Two-sided consensus at coverage 10.
    {
        IdsChannel channel(ErrorModel::uniform(0.05));
        Rng rng(7);
        Strand original = randomStrand(455, rng);
        auto reads = channel.transmitCluster(original, 10, rng);
        add("consensus_two_sided_c10", [&reads]() {
            g_sink ^= reconstructTwoSided(reads, 455).size();
        });
    }

    // --- 2-bit packing round trip.
    {
        Rng rng(8);
        Strand s = randomStrand(455, rng);
        std::vector<uint64_t> words(packedWordCount(s.size()));
        Strand out(s.size());
        add("packed_pack_455", [&s, &words]() {
            packBases(s.data(), s.size(), words.data());
            g_sink ^= words.back();
        });
        add("packed_unpack_455", [&words, &out]() {
            unpackBases(words.data(), out.size(), out.data());
            g_sink ^= uint64_t(bitsFromBase(out[17]));
        });
    }

    // --- One-way BMA consensus at coverage 10 (the decode-side inner
    // loop the per-read base masks serve).
    {
        IdsChannel channel(ErrorModel::uniform(0.05));
        Rng rng(12);
        Strand original = randomStrand(455, rng);
        auto reads = channel.transmitCluster(original, 10, rng);
        add("consensus_bma_c10", [&reads]() {
            g_sink ^= reconstructOneWay(reads, 455).size();
        });
    }

    // --- Read clustering: 1000 strands x coverage 10 = 10k noisy
    // reads, the Rashtchian-style pre-consensus grouping stage.
    {
        IdsChannel channel(ErrorModel::uniform(0.05));
        Rng rng(13);
        std::vector<Strand> reads;
        reads.reserve(10000);
        for (size_t s = 0; s < 1000; ++s) {
            Strand original = randomStrand(120, rng);
            for (size_t c = 0; c < 10; ++c)
                reads.push_back(channel.transmit(original, rng));
        }
        add("cluster_reads_n10k", [&reads]() {
            g_sink ^= clusterReads(reads).count();
        });
        ClusterParams par8;
        par8.numThreads = 8;
        add("cluster_reads_n10k_t8", [&reads, par8]() {
            g_sink ^= clusterReads(reads, par8).count();
        });
    }

    // --- Streaming out-of-core clustering at soup scale. Reads are
    // generated on the fly and fed straight into the engine — the
    // soup never exists as a std::vector<Strand>, which is the
    // engine's whole point. qgram 12 keeps the gram space (4^12)
    // comfortably wider than the strand count, as a real pipeline
    // would configure at this scale. Both rows spill: n1m's 32 MiB
    // budget is below the ~99 MiB of packed records 1M reads produce,
    // n10m's 256 MiB budget far below the ~500 MiB of 10M reads.
    {
        auto streamSoup = [](const char *label, size_t n_strands,
                             size_t coverage, size_t budget_bytes) {
            ClusterParams params;
            params.qgram = 12;
            params.memoryBudgetBytes = budget_bytes;
            StreamingClusterer engine(params);
            IdsChannel channel(ErrorModel::uniform(0.05));
            Rng rng(19);
            for (size_t s = 0; s < n_strands; ++s) {
                Strand original = randomStrand(120, rng);
                for (size_t c = 0; c < coverage; ++c)
                    engine.add(channel.transmit(original, rng));
            }
            g_sink ^= engine.finish().count();
            const StreamStats &stats = engine.stats();
            std::fprintf(stderr,
                         "%s: %zu reads, %zu shards, peak buffer "
                         "%zu KiB, spilled %zu KiB\n",
                         label, stats.reads, stats.shards,
                         stats.peakBufferBytes >> 10,
                         stats.spilledBytes >> 10);
        };
        addHeavy("cluster_stream_n1m", [&streamSoup]() {
            streamSoup("cluster_stream_n1m", 100000, 10,
                       size_t(32) << 20);
        });
        addHeavy("cluster_stream_n10m_spill", [&streamSoup]() {
            streamSoup("cluster_stream_n10m_spill", 1000000, 10,
                       size_t(256) << 20);
        });
    }

    // --- SIMD kernel microbench: the dispatched Myers batch.
    {
        IdsChannel channel(ErrorModel::uniform(0.05));
        Rng rng2(15);
        Strand original = randomStrand(455, rng2);
        Strand pattern = channel.transmit(original, rng2);
        std::vector<Strand> cand_store;
        for (int i = 0; i < 8; ++i)
            cand_store.push_back(channel.transmit(original, rng2));
        std::vector<StrandView> cands(cand_store.begin(),
                                      cand_store.end());
        std::vector<uint32_t> dists(cands.size());
        // Unbounded (a limit past every length): times full tables.
        add("edit_batch8_455", [&pattern, &cands, &dists]() {
            editDistanceBatch(pattern.data(), pattern.size(),
                              cands.data(), cands.size(), size_t(-1),
                              dists.data());
            g_sink ^= dists[7];
        });
    }

    // --- End-to-end simulate at the default operating point:
    // benchScale geometry, 5% IDS error, coverage 10. Runs through
    // the public Store façade (api/store.hh), so the measured path is
    // the one every front-end takes.
    {
        Rng rng(9);
        FileBundle bundle = randomBundle(
            StorageConfig::benchScale().capacityBytes() / 2, rng);
        auto openStore = [&bundle](size_t threads) {
            api::StoreOptions sopt = api::StoreOptions::bench();
            sopt.layout(LayoutScheme::Baseline)
                .threads(threads)
                .unitSeed(42);
            api::ChannelOptions copt;
            copt.errorRate(0.05).coverage(10);
            api::Result<api::Store> store =
                api::Store::open(sopt, copt);
            if (!store.ok()) {
                std::fprintf(stderr, "e2e bench store: %s\n",
                             store.status().toString().c_str());
                std::exit(1);
            }
            for (const auto &file : bundle.files()) {
                api::Status status = store->put(file.name, file.data);
                if (!status.ok()) {
                    std::fprintf(stderr, "e2e bench put: %s\n",
                                 status.toString().c_str());
                    std::exit(1);
                }
            }
            return std::move(*store);
        };
        auto store = std::make_shared<api::Store>(openStore(1));
        // Through the façade, synthesize() includes config resolution
        // and simulator construction per call (the cost every
        // front-end pays).
        add("e2e_store_cov10", [store]() {
            store->synthesize();
            g_sink ^= store->strandCount();
        });
        store->synthesize();
        // retrieveAt() rather than retrieveAll(): the latter memoizes
        // the configured-coverage pass on a clean store, which would
        // turn iterations 2..n into cache hits.
        add("e2e_retrieve_cov10", [store]() {
            g_sink ^= uint64_t(store->retrieveAt(10)->exact);
        });
        add("e2e_simulate_cov10", [store]() {
            store->synthesize();
            g_sink ^= uint64_t(store->retrieveAt(10)->exact);
        });

        // Thread-scaling points for the same retrieve: the decoder's
        // per-cluster consensus and per-codeword RS loops run as
        // stealable batches on cfg.numThreads workers. Results are
        // bit-identical across thread counts; only the wall clock
        // moves (and only on hosts with that many cores).
        for (size_t t : { size_t(1), size_t(4), size_t(8) }) {
            std::string name = "e2e_retrieve_t" + std::to_string(t);
            if (!wants(name.c_str()))
                continue;
            auto tstore = std::make_shared<api::Store>(openStore(t));
            tstore->synthesize();
            results.push_back(runBench(name.c_str(), opt, [tstore]() {
                g_sink ^= uint64_t(tstore->retrieveAt(10)->exact);
            }));
        }
    }

    // --- Scenario Lab: one Monte-Carlo trial of the nominal and the
    // most stressor-heavy profiles (tinyTest geometry). Tracks the
    // per-trial cost that bounds how many trials reliability CI can
    // afford per scenario.
    {
        for (const char *name : { "nominal", "nanopore-hostile" }) {
            const Scenario *scenario = findScenario(name);
            if (scenario == nullptr)
                continue;
            std::string bench =
                std::string("lab_trial_") + scenario->name;
            if (!wants(bench.c_str()))
                continue;
            StorageSimulator sim(scenario->config, scenario->scheme,
                                 scenario->channel, 42);
            sim.prepare(scenario->makePayload());
            CoverageModel coverage = scenario->makeCoverage();
            uint64_t trial = 0;
            results.push_back(runBench(
                bench.c_str(), opt, [&sim, &coverage, &trial]() {
                    g_sink ^= uint64_t(
                        sim.runTrial(coverage, trial++)
                            .result.exactPayload);
                }));
        }
    }

    // --- Durable pools: serialize/parse of the .dnapool image and a
    // full Store::openFile (parse + re-encode cross-check + pool
    // restore), tinyTest geometry at coverage 8 with pools included.
    {
        const char *path = "/tmp/dnastore_perf_pool.dnapool";
        api::StoreOptions sopt = api::StoreOptions::tiny();
        sopt.unitSeed(42);
        api::ChannelOptions copt;
        copt.errorRate(0.03).coverage(8);
        api::Result<api::Store> store = api::Store::open(sopt, copt);
        bool ready = store.ok();
        if (ready) {
            Rng rng(16);
            FileBundle payload =
                randomBundle(StorageConfig::tinyTest().capacityBytes() / 2,
                             rng);
            for (const auto &file : payload.files())
                ready = ready && store->put(file.name, file.data).ok();
            ready = ready && store->save(path).ok();
        }
        if (ready) {
            api::Result<api::PoolFileContents> contents =
                api::readPoolFile(path);
            if (contents.ok()) {
                add("pool_serialize_tiny", [&contents]() {
                    g_sink ^= api::serializePoolFile(*contents).size();
                });
                const std::vector<uint8_t> bytes =
                    api::serializePoolFile(*contents);
                add("pool_parse_tiny", [&bytes]() {
                    g_sink ^= uint64_t(api::parsePoolFile(bytes).ok());
                });
            }
            add("pool_open_file_tiny", [path, &copt]() {
                api::Result<api::Store> reopened =
                    api::Store::openFile(path, copt);
                g_sink ^= uint64_t(reopened.ok());
            });
            std::remove(path);
        } else {
            std::fprintf(stderr, "pool bench setup failed: %s\n",
                         store.status().toString().c_str());
        }
    }

    // --- Durability loop: the health probe (full-depth decode plus
    // per-cluster/per-codeword telemetry), a no-op scrub scan, a
    // repair-all rewrite of every cluster, and one closed-loop aging
    // trial (age + scrub + decode per epoch). Tracks the cost of
    // background maintenance relative to e2e_retrieve.
    {
        AgingProfile aging;
        aging.strandLossRate = 0.25;
        aging.substitutionRate = 0.004;
        api::StoreOptions sopt = api::StoreOptions::tiny();
        sopt.unitSeed(42);
        api::ChannelOptions copt;
        copt.errorRate(0.02).coverage(8).aging(aging);
        api::Result<api::Store> store = api::Store::open(sopt, copt);
        bool ready = store.ok();
        if (ready) {
            Rng rng(17);
            FileBundle payload = randomBundle(
                StorageConfig::tinyTest().capacityBytes() / 2, rng);
            for (const auto &file : payload.files())
                ready = ready && store->put(file.name, file.data).ok();
        }
        if (ready) {
            api::Store *st = &*store;
            add("health_probe_tiny", [st]() {
                g_sink ^= uint64_t(st->health()->exact);
            });
            add("scrub_scan_noop_tiny", [st]() {
                g_sink ^= st->scrub()->clustersScanned;
            });
            api::ScrubOptions repair_all;
            repair_all.repairAll = true;
            add("scrub_repair_all_tiny", [st, repair_all]() {
                g_sink ^= st->scrub(repair_all)->repaired;
            });
        } else {
            std::fprintf(stderr,
                         "durability bench setup failed: %s\n",
                         store.status().toString().c_str());
        }

        // The lab-path closed loop: each op runs one independent
        // trial — synthesize a trial-local pool, then six epochs of
        // decay each followed by a scrub and a full decode.
        ChannelProfile profile;
        profile.base = ErrorModel::uniform(0.02);
        profile.aging = aging;
        StorageSimulator sim(StorageConfig::tinyTest(),
                             LayoutScheme::Baseline, profile, 42);
        Rng rng(18);
        sim.prepare(randomBundle(
            StorageConfig::tinyTest().capacityBytes() / 2, rng));
        ScrubOptions policy;
        policy.minReads = 6;
        uint64_t trial = 0;
        add("lab_trial_scrub_loop", [&sim, &policy, &trial]() {
            g_sink ^= uint64_t(
                sim.runAgingTrial(8, trial++, 6, true, policy)
                    .epochSuccess.back());
        });
    }
}

int
perfReportMain(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            opt.out = argv[++i];
        } else if (std::strcmp(argv[i], "--min-time-ms") == 0 &&
                   i + 1 < argc) {
            ++i;
            if (!parseF64(argv[i], &opt.minTimeMs) ||
                opt.minTimeMs <= 0) {
                std::fprintf(stderr,
                             "--min-time-ms: not a positive number "
                             "(got '%s')\n",
                             argv[i]);
                return 2;
            }
        } else if (std::strcmp(argv[i], "--quick") == 0) {
            opt.quick = true;
        } else if (std::strcmp(argv[i], "--only") == 0 && i + 1 < argc) {
            opt.only = argv[++i];
        } else {
            std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
            return 2;
        }
    }

    std::vector<BenchResult> results;
    collect(results, opt);

    std::FILE *f = opt.out ? std::fopen(opt.out, "w") : stdout;
    if (!f) {
        std::fprintf(stderr, "cannot open %s\n", opt.out);
        return 1;
    }
    std::fprintf(f, "{\n  \"schema\": \"dnastore-perf-report-v1\",\n");
    std::fprintf(f, "  \"quick\": %s,\n", opt.quick ? "true" : "false");
    std::fprintf(f, "  \"results\": [\n");
    for (size_t i = 0; i < results.size(); ++i) {
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"ns_per_op\": %.1f, "
                     "\"iters\": %llu}%s\n",
                     results[i].name.c_str(), results[i].nsPerOp,
                     (unsigned long long)results[i].iters,
                     i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    if (opt.out)
        std::fclose(f);
    return 0;
}

} // namespace
} // namespace dnastore

int
main(int argc, char **argv)
{
    return dnastore::perfReportMain(argc, argv);
}
