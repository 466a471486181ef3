/**
 * daemon-rw: an in-process dnastored on loopback driven by two client
 * connections, closed-loop. Each connection replays a fixed seeded
 * trace over 256 shared tenants: ~97% get, Zipf(0.99) over tenants,
 * ~3% put of 64-256 B objects. Put names are unique per connection,
 * a get only names an object its own connection (or set-up) already
 * put, and the trace keeps every tenant under the tiny unit's
 * capacity, so NOT_FOUND and CAPACITY_EXCEEDED are never right.
 *
 * The protocol has no delete, so tenants only grow: a run is a series
 * of rounds, each on a fresh server (set-up: start, seed every tenant
 * with two objects, warm its snapshot) replaying one fixed trace.
 * Rounds repeat until the replayed time reaches --seconds.
 */

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "api/api.hh"
#include "daemon/client.hh"
#include "daemon/protocol.hh"
#include "daemon/server.hh"
#include "daemon/tenant.hh"
#include "pipeline/config.hh"
#include "util/rng.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using namespace dnastore;
using Bytes = std::vector<uint8_t>;

constexpr size_t kConnections = 2;
constexpr size_t kTenants = 256;
constexpr size_t kSmokeTenants = 16;
constexpr size_t kRequestsPerRound = 32000; //!< Per connection.
constexpr size_t kTracedRegistryRounds = 3;
constexpr size_t kSmokeRequests = 200;
constexpr double kPutShare = 0.03;
constexpr double kZipfExponent = 0.99;
constexpr size_t kMinObject = 64;
constexpr size_t kMaxObject = 256;
constexpr size_t kSeedObjects = 2;

/** Store::put's auto-geometry slack (api/store.cc kAutoSlackBits). */
constexpr size_t kAutoSlackBits = 1024;

struct Request
{
    bool put = false;
    uint32_t tenant = 0;
    std::string name;
    std::shared_ptr<const Bytes> data; //!< Put payload / expected get.
};

struct SeedObject
{
    uint32_t tenant;
    std::string name;
    std::shared_ptr<const Bytes> data;
};

/** One round's inputs: tenant names, set-up objects, per-connection traces. */
struct RoundInput
{
    std::vector<std::string> tenants;
    std::vector<SeedObject> seeds;
    std::vector<std::vector<Request>> traces;
};

std::shared_ptr<const Bytes>
randomObject(Rng &rng)
{
    auto data = std::make_shared<Bytes>(
        kMinObject + size_t(rng.nextBelow(kMaxObject - kMinObject + 1)));
    for (auto &b : *data)
        b = uint8_t(rng.next());
    return data;
}

RoundInput
makeRound(uint64_t seed, size_t round, size_t n_tenants, size_t requests)
{
    Rng rng(mixSeed(seed, 5000 + round));
    RoundInput in;
    for (size_t t = 0; t < n_tenants; ++t)
        in.tenants.push_back("t" + std::to_string(t));

    // Capacity model: the bundle each tenant would hold if every put of
    // both connections landed. Store::put admits by the same formula.
    const size_t capacity_bits = StorageConfig::tinyTest().capacityBits();
    std::vector<size_t> bits(n_tenants, FileBundle().serializedBits());
    auto entryBits = [](const std::string &name, size_t size) {
        return (1 + name.size() + 4 + size) * 8;
    };

    // Objects each connection may name in a get, per tenant.
    std::vector<std::vector<std::vector<std::shared_ptr<const Bytes>>>>
        visible(kConnections,
                std::vector<std::vector<std::shared_ptr<const Bytes>>>(
                    n_tenants));
    std::vector<std::vector<std::vector<std::string>>> visibleNames(
        kConnections, std::vector<std::vector<std::string>>(n_tenants));
    for (uint32_t t = 0; t < n_tenants; ++t) {
        for (size_t k = 0; k < kSeedObjects; ++k) {
            SeedObject s{ t, "s" + std::to_string(k), randomObject(rng) };
            bits[t] += entryBits(s.name, s.data->size());
            for (size_t c = 0; c < kConnections; ++c) {
                visible[c][t].push_back(s.data);
                visibleNames[c][t].push_back(s.name);
            }
            in.seeds.push_back(std::move(s));
        }
    }

    // Zipf(0.99) over a seeded permutation of the tenants.
    std::vector<uint32_t> perm(n_tenants);
    for (uint32_t t = 0; t < n_tenants; ++t)
        perm[t] = t;
    rng.shuffle(perm);
    std::vector<double> cdf(n_tenants);
    double total = 0.0;
    for (size_t k = 0; k < n_tenants; ++k) {
        total += 1.0 / std::pow(double(k + 1), kZipfExponent);
        cdf[k] = total;
    }
    auto zipfTenant = [&]() {
        const double u = rng.nextDouble() * total;
        size_t k = size_t(std::lower_bound(cdf.begin(), cdf.end(), u) -
                          cdf.begin());
        return perm[std::min(k, n_tenants - 1)];
    };

    in.traces.assign(kConnections, {});
    std::vector<size_t> put_count(kConnections, 0);
    for (size_t i = 0; i < requests; ++i) {
        for (size_t c = 0; c < kConnections; ++c) {
            Request req;
            req.tenant = zipfTenant();
            if (rng.nextDouble() < kPutShare) {
                const std::string name = "c" + std::to_string(c) + "p" +
                    std::to_string(put_count[c]);
                std::shared_ptr<const Bytes> data = randomObject(rng);
                // A full tenant passes its put to the next one with room.
                for (size_t probe = 0; probe < n_tenants; ++probe) {
                    const uint32_t t =
                        uint32_t((req.tenant + probe) % n_tenants);
                    const size_t grown =
                        bits[t] + entryBits(name, data->size());
                    if (grown + kAutoSlackBits > capacity_bits)
                        continue;
                    bits[t] = grown;
                    req.put = true;
                    req.tenant = t;
                    req.name = name;
                    req.data = data;
                    visible[c][t].push_back(data);
                    visibleNames[c][t].push_back(name);
                    ++put_count[c];
                    break;
                }
            }
            if (!req.put) {
                const size_t k = size_t(
                    rng.nextBelow(visible[c][req.tenant].size()));
                req.name = visibleNames[c][req.tenant][k];
                req.data = visible[c][req.tenant][k];
            }
            in.traces[c].push_back(std::move(req));
        }
    }
    return in;
}

daemon::TenantConfig
tenantConfig(const std::string &root)
{
    daemon::TenantConfig cfg;
    cfg.root = root;
    cfg.threads = 1;
    return cfg;
}

/** A fresh, empty pool directory for one round. */
std::string
makeRoot(const std::string &scratch, size_t round)
{
    const std::string root = scratch + "/daemon-" +
        std::to_string(::getpid()) + "-r" + std::to_string(round);
    ::mkdir(root.c_str(), 0755);
    return root;
}

/** Remove a round's pool directory (flat: pool files only). */
void
removeRoot(const std::string &root, const RoundInput &in)
{
    for (const std::string &t : in.tenants) {
        std::remove((root + "/" + t + ".dnapool").c_str());
        std::remove((root + "/" + t + ".dnapool.tmp").c_str());
    }
    ::rmdir(root.c_str());
}

std::string
checkGet(const api::Result<Bytes> &got, const Request &req)
{
    if (!got.ok())
        return "get " + req.name + ": " + got.status().toString();
    if (*got != *req.data)
        return "get " + req.name + ": bytes differ from the put";
    return "";
}

/** Per-connection results of one socket round. */
struct ConnResult
{
    Samples getUs, putUs;
    std::vector<Failure> failures;
};

/** Global op id of request @p i of connection @p c in round @p round. */
size_t
opId(size_t round, size_t requests, size_t i, size_t c)
{
    return (round * requests + i) * kConnections + c;
}

/**
 * One round over sockets: fresh server, seeding, then both
 * connections replay their traces. Returns the replay wall seconds;
 * @p ref_ms receives the host reference bracketing the replay.
 */
double
socketRound(const RoundInput &in, size_t round, const std::string &scratch,
            HostReference &ref, double *ref_ms, Samples &setup,
            std::vector<ConnResult> &results, Report &report)
{
    const size_t requests = in.traces[0].size();
    const Clock::time_point t0 = Clock::now();
    const std::string root = makeRoot(scratch, round);
    daemon::ServerOptions options;
    options.tenants = tenantConfig(root);
    daemon::Server server(options);
    api::Status started = server.start();
    if (!started.ok()) {
        report.fail(opId(round, requests, 0, 0),
                    "server start: " + started.toString());
        removeRoot(root, in);
        return 0.0;
    }
    {
        daemon::Client seeder;
        api::Status st = seeder.connect(server.port());
        for (const SeedObject &s : in.seeds) {
            if (!st.ok())
                break;
            st = seeder.put(in.tenants[s.tenant], s.name, *s.data);
        }
        // Warm every tenant's read snapshot (one rebuild each).
        for (const SeedObject &s : in.seeds) {
            if (!st.ok() || s.name != "s0")
                continue;
            api::Result<Bytes> got = seeder.get(in.tenants[s.tenant], s.name);
            st = got.ok() ? (*got == *s.data ? api::Status()
                                             : api::Status::dataLoss(
                                                   "seed bytes differ"))
                          : got.status();
        }
        if (!st.ok()) {
            report.fail(opId(round, requests, 0, 0),
                        "set-up: " + st.toString());
            server.drain();
            removeRoot(root, in);
            return 0.0;
        }
    }
    setup.add(secondsSince(t0));

    // Before the clients start: they spin until go.
    ref.before(1000.0);
    results.assign(kConnections, {});
    std::atomic<size_t> ready{ 0 };
    std::atomic<bool> go{ false };
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kConnections; ++c) {
        threads.emplace_back([&, c] {
            ConnResult &out = results[c];
            daemon::Client client;
            api::Status st = client.connect(server.port());
            ready.fetch_add(1);
            while (!go.load())
                std::this_thread::yield();
            if (!st.ok()) {
                out.failures.push_back({ opId(round, requests, 0, c),
                                         "connect: " + st.toString() });
                return;
            }
            for (size_t i = 0; i < in.traces[c].size(); ++i) {
                const Request &req = in.traces[c][i];
                const std::string &tenant = in.tenants[req.tenant];
                std::string why;
                const Clock::time_point r0 = Clock::now();
                if (req.put) {
                    api::Status ps = client.put(tenant, req.name, *req.data);
                    out.putUs.add(msBetween(r0, Clock::now()) * 1000.0);
                    if (!ps.ok())
                        why = "put " + req.name + ": " + ps.toString();
                } else {
                    api::Result<Bytes> got = client.get(tenant, req.name);
                    out.getUs.add(msBetween(r0, Clock::now()) * 1000.0);
                    why = checkGet(got, req);
                }
                if (!why.empty())
                    out.failures.push_back(
                        { opId(round, requests, i, c), why });
            }
        });
    }
    while (ready.load() < kConnections)
        std::this_thread::yield();
    const Clock::time_point r0 = Clock::now();
    go.store(true);
    for (std::thread &t : threads)
        t.join();
    const double wall = secondsSince(r0);
    *ref_ms = ref.after(wall * 1000.0);
    server.drain();
    removeRoot(root, in);
    return wall;
}

/**
 * The same round replayed against a TenantRegistry with no sockets,
 * requests interleaved connection by connection. Each request is
 * framed and parsed both ways (daemon.protocol.codec) around the
 * tenant call. Per-request wall times go to @p requestUs.
 */
void
registryRound(const RoundInput &in, size_t round, const std::string &scratch,
              Tracer &tracer, Samples &requestUs, Report &report)
{
    const size_t requests = in.traces[0].size();
    // Nothing saves in this replay; the root is never created.
    daemon::TenantRegistry registry(
        tenantConfig(scratch + "/daemon-registry-unused"));
    std::vector<daemon::Tenant *> tenants(in.tenants.size(), nullptr);
    for (size_t t = 0; t < in.tenants.size(); ++t) {
        api::Result<daemon::Tenant *> tenant =
            registry.getOrCreate(in.tenants[t]);
        if (!tenant.ok()) {
            report.fail(opId(round, requests, 0, 0),
                        "registry: " + tenant.status().toString());
            return;
        }
        tenants[t] = *tenant;
    }
    for (const SeedObject &s : in.seeds)
        tenants[s.tenant]->put(s.name, *s.data);
    for (const SeedObject &s : in.seeds)
        if (s.name == "s0")
            tenants[s.tenant]->get(s.name);

    // A get after a put on the same tenant rebuilds its snapshot.
    std::vector<bool> stale(in.tenants.size(), false);
    std::string error;
    for (size_t i = 0; i < requests; ++i) {
        for (size_t c = 0; c < kConnections; ++c) {
            const Request &req = in.traces[c][i];
            const size_t op = opId(round, requests, i, c);
            tracer.setOp(op);
            const Clock::time_point r0 = Clock::now();
            Scope root(tracer, req.put ? "op.put" : "op.get");

            daemon::Request request;
            {
                Scope s(tracer, "daemon.protocol.codec");
                daemon::Request wire;
                wire.op = req.put ? daemon::Op::Put : daemon::Op::Get;
                wire.tenant = in.tenants[req.tenant];
                wire.name = req.name;
                if (req.put)
                    wire.data = *req.data;
                const Bytes framed = daemon::frame(daemon::encodeRequest(wire));
                Bytes payload;
                size_t consumed = 0;
                daemon::extractFrame(framed, &payload, &consumed, &error);
                daemon::decodeRequest(payload, &request, &error);
            }
            api::Result<daemon::Tenant *> tenant =
                req.put ? registry.getOrCreate(request.tenant)
                        : registry.find(request.tenant);
            daemon::Response response;
            response.op = uint8_t(request.op);
            std::string why;
            if (!tenant.ok()) {
                why = "tenant lookup: " + tenant.status().toString();
            } else if (req.put) {
                api::Status st;
                {
                    Scope s(tracer, "daemon.tenant.put");
                    st = (*tenant)->put(request.name, request.data);
                }
                tracer.count("daemon.tenant.puts", 1.0);
                stale[req.tenant] = true;
                if (!st.ok())
                    why = "put " + req.name + ": " + st.toString();
            } else {
                api::Result<Bytes> got = Bytes();
                {
                    Scope s(tracer, stale[req.tenant]
                                        ? "daemon.tenant.rebuild"
                                        : "daemon.tenant.get_hit");
                    got = (*tenant)->get(request.name);
                }
                if (stale[req.tenant])
                    tracer.count("daemon.tenant.rebuilds", 1.0);
                stale[req.tenant] = false;
                why = checkGet(got, req);
                if (got.ok())
                    response.body = std::move(*got);
            }
            {
                Scope s(tracer, "daemon.protocol.codec");
                const Bytes framed =
                    daemon::frame(daemon::encodeResponse(response));
                Bytes payload;
                size_t consumed = 0;
                daemon::Response decoded;
                daemon::extractFrame(framed, &payload, &consumed, &error);
                daemon::decodeResponse(payload, &decoded, &error);
            }
            if (!why.empty())
                report.fail(op, "registry replay: " + why);
            requestUs.add(msBetween(r0, Clock::now()) * 1000.0);
        }
    }
}

/** Median span duration (us) of spans named @p name. */
Samples
spanSamples(const Tracer &tracer, const char *name)
{
    Samples out;
    for (const Tracer::Span &s : tracer.spans())
        if (std::string(s.name) == name)
            out.add(msBetween(s.start, s.end) * 1000.0);
    return out;
}

/** Per-request codec time (us): both codec spans of each request. */
Samples
codecPerRequest(const Tracer &tracer)
{
    std::map<uint64_t, double> per_op;
    for (const Tracer::Span &s : tracer.spans())
        if (std::string(s.name) == "daemon.protocol.codec")
            per_op[s.op] += msBetween(s.start, s.end) * 1000.0;
    Samples out;
    for (const auto &entry : per_op)
        out.add(entry.second);
    return out;
}

} // namespace

Report
runDaemon(const RunOptions &opt)
{
    Report report;
    report.workload = "daemon-rw";
    report.seed = opt.seed;
    report.traced = opt.trace;

    const size_t n_tenants = opt.smoke ? kSmokeTenants : kTenants;
    const size_t requests = opt.smoke ? kSmokeRequests : kRequestsPerRound;

    // Request cost: round-trip time over the host reference bracketing
    // the round's replay (see referenceMs), on as many threads as the
    // round keeps busy.
    Samples setup, get_us, put_us, all_us, req_cost;
    double replay_s = 0.0, cost_sum = 0.0;
    double peak_rss = 0.0;
    HostReference ref(kConnections);
    size_t rounds = 0;
    while (rounds == 0 || (!opt.smoke && replay_s < opt.seconds)) {
        const RoundInput in = makeRound(opt.seed, rounds, n_tenants, requests);
        std::vector<ConnResult> results;
        const size_t failed_before = report.failures.size();
        double ref_ms = 1.0;
        const double wall = socketRound(in, rounds, opt.scratch, ref, &ref_ms,
                                        setup, results, report);
        replay_s += wall;
        cost_sum += wall * 1000.0 / ref_ms;
        // The peak over a fixed amount of work (set-up and one round):
        // how many rounds fit in --seconds varies with host speed, and
        // each adds a chance for heap growth across server threads.
        if (rounds == 0)
            peak_rss = peakRssMiB();
        ++rounds;
        report.attempted += kConnections * requests;
        for (const ConnResult &r : results) {
            for (const Failure &f : r.failures)
                report.fail(f.op, f.reason);
        }
        if (report.failures.size() > failed_before && results.empty())
            break; // the round could not start; do not spin
        for (const ConnResult &r : results) {
            for (double v : r.getUs.values())
                get_us.add(v), all_us.add(v), req_cost.add(v / 1000.0 / ref_ms);
            for (double v : r.putUs.values())
                put_us.add(v), all_us.add(v), req_cost.add(v / 1000.0 / ref_ms);
        }
    }

    if (!opt.trace) {
        report.metric("setup_s", setup.median(), "s", setup.size());
        report.latency("get_us_p50", "get_us_p99", 0.99, get_us, "us");
        report.latency("put_us_p50", "put_us_p99", 0.99, put_us, "us");
        const double req_per_s =
            replay_s > 0 ? double(all_us.size()) / replay_s : 0.0;
        report.metric("req_per_s", req_per_s, "1/s", all_us.size());
        report.metric("op_ms_p50", all_us.median() / 1000.0, "ms",
                      all_us.size());
        report.metric("throughput_per_s", req_per_s, "1/s", all_us.size());
        report.metric("op_p50_ref", req_cost.median(), "ref", req_cost.size());
        report.metric("throughput_per_ref",
                      cost_sum > 0 ? double(req_cost.size()) / cost_sum : 0.0,
                      "1/ref", req_cost.size());
        report.metric("peak_rss_MiB", peak_rss, "MiB");
        report.metric("fail_rate",
                      double(report.failures.size()) /
                          double(std::max<size_t>(1, report.attempted)),
                      "ratio", report.attempted);
        return report;
    }

    // Traced run: the socket rounds above give the client round trips;
    // the first rounds replayed against a registry, recorder off then
    // on, give the layers.
    Tracer off(false), on(true);
    Samples off_us, on_us;
    for (size_t r = 0; r < std::min(rounds, kTracedRegistryRounds); ++r) {
        const RoundInput in = makeRound(opt.seed, r, n_tenants, requests);
        registryRound(in, r, opt.scratch, off, off_us, report);
        registryRound(in, r, opt.scratch, on, on_us, report);
    }
    const Samples get_hit = spanSamples(on, "daemon.tenant.get_hit");
    const Samples codec = codecPerRequest(on);
    std::map<std::string, double> direct;
    direct["daemon.transport.self_us"] =
        get_us.median() - get_hit.median() - codec.median();
    direct["trace.overhead_share"] = on_us.median() / off_us.median() - 1.0;
    emitLayerMetrics(report, on, double(on_us.size()), direct);
    on.write(opt.scratch + "/spans-" + report.workload + ".csv");
    return report;
}

} // namespace perfbench
