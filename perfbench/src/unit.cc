/**
 * unit-roundtrip and unit-clustered: one op writes a fresh benchScale
 * Store (open, put 1-8 seeded objects that fill the unit, synthesize)
 * and reads it back (retrieveAll, then a verified get of every
 * object), at 5% IDS error and coverage 10 on one thread.
 * unit-clustered regroups the reads with the real clusterer (qgram 12)
 * instead of the perfect grouping.
 */

#include <algorithm>
#include <cstring>
#include <memory>

#include "api/api.hh"
#include "pipeline/simulator.hh"
#include "replay.hh"
#include "util/rng.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using namespace dnastore;

constexpr double kErrorRate = 0.05;
constexpr size_t kCoverage = 10;
constexpr size_t kQgram = 12;
constexpr size_t kSetupReps = 3;

/** Warm-up ops use their own seed streams, apart from the timed ops. */
constexpr uint64_t kWarmupStream = 1u << 20;

LayoutScheme
schemeFor(const std::string &name)
{
    bool ok = false;
    LayoutScheme scheme = layoutSchemeFromName(name.c_str(), &ok);
    return ok ? scheme : LayoutScheme::Gini;
}

StorageConfig
unitConfig()
{
    StorageConfig cfg = StorageConfig::benchScale();
    cfg.numThreads = 1;
    return cfg;
}

/** One op's inputs, all derived from (workload seed, op index). */
struct OpInput
{
    uint64_t unitSeed = 0;
    FileBundle bundle;
    size_t bytes = 0;
};

/**
 * 1-8 random objects whose serialized bundle fills the unit to within
 * a few bytes: a half-full unit pads with zero columns, which the
 * clusterer would rightly merge as near-duplicates.
 */
OpInput
makeInput(uint64_t seed, uint64_t op, size_t capacity_bytes)
{
    Rng rng(mixSeed(seed, op));
    OpInput in;
    in.unitSeed = rng.next();
    const size_t k = 1 + size_t(rng.nextBelow(8));

    FileBundle names;
    for (size_t i = 0; i < k; ++i)
        names.add("obj" + std::to_string(i) + ".bin", {});
    const size_t overhead = (names.serializedBits() + 7) / 8;
    const size_t budget = capacity_bytes - overhead - 8;

    // k - 1 random cut points split the budget into k objects.
    std::vector<size_t> cuts = { 0, budget };
    for (size_t i = 1; i < k; ++i)
        cuts.push_back(1 + size_t(rng.nextBelow(budget - 1)));
    std::sort(cuts.begin(), cuts.end());
    for (size_t i = 0; i < k; ++i) {
        std::vector<uint8_t> data(cuts[i + 1] - cuts[i]);
        for (auto &b : data)
            b = uint8_t(rng.next());
        in.bytes += data.size();
        in.bundle.add("obj" + std::to_string(i) + ".bin", std::move(data));
    }
    return in;
}

api::ChannelOptions
channelFor(bool clustered)
{
    api::ChannelOptions chan;
    chan.errorRate(kErrorRate).coverage(kCoverage);
    if (clustered)
        chan.cluster(api::ClusterOptions().qgram(kQgram));
    return chan;
}

/** Outcome of one op through the public API. */
struct ApiOp
{
    double writeMs = 0.0;
    double readMs = 0.0;
    std::string failure; //!< "" when every output checked out.
    api::Retrieval retrieval;
};

/** The timed op: write then read through api::Store, every output checked. */
ApiOp
apiOp(const OpInput &in, LayoutScheme scheme, bool clustered)
{
    ApiOp out;
    const Clock::time_point t0 = Clock::now();
    api::Result<api::Store> store = api::Store::open(
        api::StoreOptions::bench().layout(scheme).threads(1).unitSeed(
            in.unitSeed),
        channelFor(clustered));
    if (!store.ok()) {
        out.failure = "open: " + store.status().toString();
        return out;
    }
    for (const NamedFile &f : in.bundle.files()) {
        api::Status st = store->put(f.name, f.data);
        if (!st.ok()) {
            out.failure = "put " + f.name + ": " + st.toString();
            return out;
        }
    }
    api::Status synth = store->synthesize();
    const Clock::time_point t1 = Clock::now();
    if (!synth.ok()) {
        out.failure = "synthesize: " + synth.toString();
        return out;
    }

    api::Result<api::Retrieval> retrieval = store->retrieveAll();
    std::string failure;
    if (!retrieval.ok()) {
        failure = "retrieveAll: " + retrieval.status().toString();
    } else if (!retrieval->exact) {
        failure = "inexact unit: " +
            std::to_string(retrieval->failedCodewords) +
            " codewords failed";
    }
    for (const NamedFile &f : in.bundle.files()) {
        if (!failure.empty())
            break;
        api::Result<std::vector<uint8_t>> got = store->get(f.name);
        if (!got.ok())
            failure = "get " + f.name + ": " + got.status().toString();
        else if (*got != f.data)
            failure = "get " + f.name + ": bytes differ from the put";
    }
    const Clock::time_point t2 = Clock::now();
    out.writeMs = msBetween(t0, t1);
    out.readMs = msBetween(t1, t2);
    out.failure = failure;
    if (retrieval.ok())
        out.retrieval = std::move(*retrieval);
    return out;
}

/** Replay of one op; the decoded unit and strands for the checks. */
struct ReplayOp
{
    double writeMs = 0.0;
    double readMs = 0.0;
    std::vector<Strand> strands;
    DecodedUnit decoded;
    ClusterOutcome cluster;
    bool objectsMatch = false;
};

ReplayOp
replayOp(const UnitCodec &codec, const OpInput &in,
         const ErrorModel &model, const ClusterParams *cluster,
         Tracer &tracer)
{
    ReplayOp out;
    std::unique_ptr<ReadPool> pool;
    const Clock::time_point t0 = Clock::now();
    {
        Scope root(tracer, "op.write");
        out.strands = replayEncode(codec, in.bundle, tracer);
        pool = replaySynthesize(codec, out.strands, model, kCoverage,
                                in.unitSeed, tracer);
    }
    const Clock::time_point t1 = Clock::now();
    {
        Scope root(tracer, "op.read");
        ReadBatch batch;
        {
            Scope s(tracer, "channel.fill_batch");
            pool->fillBatch(kCoverage, batch);
        }
        out.decoded = cluster != nullptr
            ? replayClusteredDecode(codec, batch, *cluster, tracer,
                                    &out.cluster)
            : replayDecode(codec, batch, tracer);
        // The verified gets: every object, byte for byte.
        out.objectsMatch = out.decoded.bundleOk;
        for (const NamedFile &f : in.bundle.files()) {
            const NamedFile *got = out.decoded.bundle.find(f.name);
            out.objectsMatch =
                out.objectsMatch && got != nullptr && got->data == f.data;
        }
        if (tracer.enabled()) {
            size_t bases = 0;
            for (const StrandView &v : batch.views)
                bases += v.size();
            tracer.count("channel.bases", double(bases));
        }
    }
    const Clock::time_point t2 = Clock::now();
    out.writeMs = msBetween(t0, t1);
    out.readMs = msBetween(t1, t2);
    if (tracer.enabled())
        countDecode(out.decoded, tracer);
    return out;
}

/**
 * The traced op's equality checks: the replay against the library
 * (StorageSimulator on the same inputs) and against the API op.
 */
std::string
checkReplay(const ReplayOp &replay, const ApiOp &api_op, const OpInput &in,
            const UnitCodec &codec, const api::ChannelOptions &chan,
            bool clustered)
{
    StorageSimulator sim(codec.cfg, codec.scheme, chan.channelProfile(),
                         in.unitSeed);
    sim.store(in.bundle, chan.maxCoverage());
    std::string diff = compareStrands(replay.strands, sim.unit().strands);
    if (!diff.empty())
        return "write replay: " + diff;
    diff = compareStrands(replay.strands,
                          codec.encoder.encode(in.bundle).strands);
    if (!diff.empty())
        return "write replay vs UnitEncoder::encode: " + diff;

    RetrievalResult lib;
    if (clustered) {
        ClusteredRetrievalResult cr =
            sim.retrieveClustered(kCoverage, chan.clusterParams());
        if (cr.clustersFound != replay.cluster.clustersFound ||
            cr.quality.precision != replay.cluster.quality.precision ||
            cr.quality.recall != replay.cluster.quality.recall)
            return "read replay: clustering differs";
        lib = std::move(cr.result);
    } else {
        lib = sim.retrieve(kCoverage);
    }
    diff = compareDecoded(replay.decoded, lib.decoded);
    if (!diff.empty())
        return "read replay: " + diff;

    const api::Retrieval &r = api_op.retrieval;
    if (r.errorsPerCodeword != replay.decoded.stats.errorsPerCodeword ||
        r.erasedColumns != replay.decoded.stats.erasedColumns ||
        r.failedCodewords != replay.decoded.stats.failedCodewords ||
        r.exact != replay.decoded.exact)
        return "read replay: differs from Store::retrieveAll";
    if (clustered &&
        (r.clustersFound != replay.cluster.clustersFound ||
         r.precision != replay.cluster.quality.precision ||
         r.recall != replay.cluster.quality.recall))
        return "read replay: clustering differs from Store::retrieveAll";
    if (!replay.objectsMatch)
        return "read replay: recovered objects differ from the put";
    return "";
}

} // namespace

Report
runUnit(const RunOptions &opt, bool clustered)
{
    Report report;
    report.workload = clustered ? "unit-clustered" : "unit-roundtrip";
    report.seed = opt.seed;
    report.traced = opt.trace;

    const LayoutScheme scheme = schemeFor(opt.layout);
    const StorageConfig cfg = unitConfig();
    const size_t capacity = cfg.capacityBytes();
    const api::ChannelOptions chan = channelFor(clustered);

    // Set-up: warm-up round trips (perfect grouping), repeated; the
    // median is setup_s.
    Samples setup;
    const size_t setup_reps = opt.smoke ? 1 : kSetupReps;
    for (size_t r = 0; r < setup_reps; ++r) {
        const Clock::time_point t0 = Clock::now();
        const OpInput warm =
            makeInput(opt.seed, kWarmupStream + r, capacity);
        ApiOp op = apiOp(warm, scheme, false);
        if (!op.failure.empty())
            report.fail(r, "warm-up: " + op.failure);
        setup.add(secondsSince(t0));
    }

    const size_t max_ops = opt.smoke ? 1 : SIZE_MAX;
    Samples write_ms, read_ms, op_ms;
    double verified_bytes = 0.0;

    if (!opt.trace) {
        Samples op_cost; // op time over the host reference, see referenceMs
        double cost_sum = 0.0, last_ms = 0.0;
        HostReference ref(1);
        const Clock::time_point start = Clock::now();
        for (size_t op = 0; op < max_ops && (op == 0 ||
                                             secondsSince(start) <
                                                 opt.seconds);
             ++op) {
            const OpInput in = makeInput(opt.seed, op, capacity);
            ref.before(last_ms);
            const ApiOp r = apiOp(in, scheme, clustered);
            ++report.attempted;
            if (!r.failure.empty()) {
                report.fail(op, r.failure);
                continue;
            }
            const double ms = r.writeMs + r.readMs;
            write_ms.add(r.writeMs);
            read_ms.add(r.readMs);
            op_ms.add(ms);
            verified_bytes += double(in.bytes);
            const double cost = ms / ref.after(ms);
            last_ms = ms;
            op_cost.add(cost);
            cost_sum += cost;
        }
        report.metric("setup_s", setup.median(), "s", setup.size());
        report.latency("write_ms_p50", "write_ms_p90", 0.9, write_ms, "ms");
        report.latency("read_ms_p50", "read_ms_p90", 0.9, read_ms, "ms");
        const double total_s = op_ms.sum() / 1000.0;
        report.metric("payload_MBps",
                      total_s > 0 ? verified_bytes / total_s / 1e6 : 0.0,
                      "MB/s", op_ms.size());
        report.metric("op_ms_p50", op_ms.median(), "ms", op_ms.size());
        report.metric("throughput_per_s",
                      total_s > 0 ? double(op_ms.size()) / total_s : 0.0,
                      "1/s", op_ms.size());
        report.metric("op_p50_ref", op_cost.median(), "ref", op_cost.size());
        report.metric("throughput_per_ref",
                      cost_sum > 0 ? double(op_cost.size()) / cost_sum : 0.0,
                      "1/ref", op_cost.size());
        report.metric("peak_rss_MiB", peakRssMiB(), "MiB");
        report.metric("fail_rate",
                      double(report.failures.size()) /
                          double(std::max<size_t>(1, report.attempted)),
                      "ratio", report.attempted);
        return report;
    }

    // Traced run: per op, the API op (reference), the replay with the
    // recorder off (the overhead baseline and the façade's share), and
    // the replay with spans.
    const UnitCodec codec(cfg, scheme);
    const ErrorModel model = chan.channelProfile().base;
    const ClusterParams params = chan.clusterParams();
    const ClusterParams *cluster = clustered ? &params : nullptr;
    Tracer off(false), on(true);
    Samples replay_off_ms, replay_on_ms;
    double api_write_self = 0.0, api_read_self = 0.0;
    const Clock::time_point start = Clock::now();
    for (size_t op = 0;
         op < max_ops && (op == 0 || secondsSince(start) < opt.seconds);
         ++op) {
        const OpInput in = makeInput(opt.seed, op, capacity);
        ++report.attempted;
        const ApiOp api_op = apiOp(in, scheme, clustered);
        if (!api_op.failure.empty()) {
            report.fail(op, api_op.failure);
            continue;
        }
        const ReplayOp plain = replayOp(codec, in, model, cluster, off);
        on.setOp(op);
        const ReplayOp traced = replayOp(codec, in, model, cluster, on);
        const std::string diff =
            checkReplay(traced, api_op, in, codec, chan, clustered);
        if (!diff.empty()) {
            report.fail(op, diff);
            continue;
        }
        replay_off_ms.add(plain.writeMs + plain.readMs);
        replay_on_ms.add(traced.writeMs + traced.readMs);
        api_write_self += api_op.writeMs - plain.writeMs;
        api_read_self += api_op.readMs - plain.readMs;
    }
    const double ops = double(replay_on_ms.size());
    std::map<std::string, double> direct;
    if (ops > 0) {
        direct["api.write.self_ms"] = api_write_self / ops;
        direct["api.read.self_ms"] = api_read_self / ops;
        direct["trace.overhead_share"] =
            replay_on_ms.median() / replay_off_ms.median() - 1.0;
    }
    emitLayerMetrics(report, on, ops, direct);
    on.write(opt.scratch + "/spans-" + report.workload + ".csv");
    return report;
}

} // namespace perfbench
