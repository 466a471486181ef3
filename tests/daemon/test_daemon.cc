/**
 * dnastored end to end: an in-process Server on an ephemeral port,
 * hammered by concurrent Clients. The contracts under test:
 *
 *  - byte identity: a tenant's get/health/trial responses equal a
 *    direct api::Store configured exactly as the daemon configures
 *    tenant stores (same options, seed, and put order) — gets after
 *    a drain, since a get may be served from an older generation;
 *  - stale reads: a get of a name the published snapshot holds never
 *    waits for a rebuild after a put, a new name or a repairing scrub
 *    rebuilds synchronously, and NOT_FOUND never rebuilds;
 *  - bounded connections: one beyond the cap gets UNAVAILABLE;
 *  - the Status taxonomy crosses the wire unchanged, quota
 *    CAPACITY_EXCEEDED included, and a tenant's NotFound/DataLoss
 *    statuses equal the direct Store's, message for message;
 *  - corruption containment: malformed payloads fail one request,
 *    framing failures close one connection, and an every-byte
 *    corruption sweep never crashes or wedges the server;
 *  - bounded resources: finished connections release their
 *    descriptors, so short connections never exhaust the fd limit;
 *  - drain durability: drain() persists every dirty tenant pool as a
 *    loadable .dnapool, and (subprocess test) SIGTERM mid-load exits
 *    0 with every acked put durable.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hh"
#include "daemon/client.hh"
#include "daemon/protocol.hh"
#include "daemon/server.hh"

using namespace dnastore;
using namespace dnastore::daemon;

namespace {

/** Fresh per-test directory under gtest's temp root. */
std::string
freshRoot(const std::string &name)
{
    std::string dir = testing::TempDir() + "daemon_" + name;
    std::string cleanup = "rm -rf '" + dir + "'";
    if (std::system(cleanup.c_str()) != 0)
        ADD_FAILURE() << "cleanup failed for " << dir;
    EXPECT_EQ(::mkdir(dir.c_str(), 0755), 0) << dir;
    return dir;
}

std::vector<uint8_t>
patternBytes(size_t n, uint8_t base)
{
    std::vector<uint8_t> data(n);
    for (size_t i = 0; i < n; ++i)
        data[i] = uint8_t(base + i * 31);
    return data;
}

/** A direct Store configured exactly as Tenant::open configures
 * fresh tenant stores — the byte-identity reference. */
api::Store
directStoreFor(const TenantConfig &config)
{
    api::Result<api::Store> store = api::Store::open(
        api::StoreOptions()
            .autoGeometry(true)
            .threads(config.threads)
            .packedReadPools(config.packedReadPools)
            .unitSeed(config.unitSeed),
        api::ChannelOptions()
            .errorRate(config.errorRate)
            .coverage(config.coverage));
    EXPECT_TRUE(store.ok()) << store.status().toString();
    return std::move(*store);
}

TenantConfig
tenantConfig(const std::string &root)
{
    TenantConfig config;
    config.root = root;
    return config;
}

} // namespace

// ------------------------------------------------- concurrency + identity

TEST(DaemonE2E, ConcurrentClientsMatchDirectStore)
{
    const std::string root = freshRoot("concurrent");
    ServerOptions options;
    options.tenants = tenantConfig(root);
    Server server(options);
    ASSERT_TRUE(server.start().ok());
    const uint16_t port = server.port();
    ASSERT_NE(port, 0);

    constexpr int kClients = 8;
    constexpr int kObjects = 3;
    std::atomic<int> failures{ 0 };
    std::vector<std::string> healthJson(kClients);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            Client client;
            if (!client.connect(port).ok()) {
                ++failures;
                return;
            }
            const std::string tenant = "tenant" + std::to_string(c);
            for (int o = 0; o < kObjects; ++o) {
                const std::string name =
                    "obj" + std::to_string(o) + ".bin";
                const std::vector<uint8_t> payload =
                    patternBytes(200 + size_t(o) * 37,
                                 uint8_t(c * 16 + o));
                if (!client.put(tenant, name, payload).ok()) {
                    ++failures;
                    return;
                }
                // Interleave a read so snapshots rebuild mid-stream.
                api::Result<std::vector<uint8_t>> got =
                    client.get(tenant, name);
                if (!got.ok() || *got != payload) {
                    ++failures;
                    return;
                }
            }
            api::Result<std::string> health = client.health(tenant);
            if (!health.ok()) {
                ++failures;
                return;
            }
            healthJson[size_t(c)] = *health;
            api::Result<std::vector<api::ObjectInfo>> listing =
                client.list(tenant);
            if (!listing.ok() ||
                listing->size() != size_t(kObjects))
                ++failures;
        });
    }
    for (std::thread &t : clients)
        t.join();
    EXPECT_EQ(failures.load(), 0);

    // Health is never served stale: each tenant's report must be
    // byte-identical to a direct Store fed the same objects in the
    // same order.
    std::vector<api::Store> direct;
    for (int c = 0; c < kClients; ++c) {
        direct.push_back(directStoreFor(options.tenants));
        for (int o = 0; o < kObjects; ++o) {
            const std::string name =
                "obj" + std::to_string(o) + ".bin";
            ASSERT_TRUE(
                direct.back()
                    .put(name, patternBytes(200 + size_t(o) * 37,
                                            uint8_t(c * 16 + o)))
                    .ok());
        }
        api::Result<api::HealthReport> health = direct.back().health();
        ASSERT_TRUE(health.ok());
        EXPECT_EQ(healthJson[size_t(c)], health->toJson())
            << "health JSON diverged for tenant" << c;
    }
    ASSERT_TRUE(server.drain().ok());

    // A get may be served from an older generation while the server
    // runs; after the drain every get must be byte-identical to the
    // direct Store's.
    Server revived(options);
    ASSERT_TRUE(revived.start().ok());
    Client client;
    ASSERT_TRUE(client.connect(revived.port()).ok());
    for (int c = 0; c < kClients; ++c) {
        const std::string tenant = "tenant" + std::to_string(c);
        for (int o = 0; o < kObjects; ++o) {
            const std::string name =
                "obj" + std::to_string(o) + ".bin";
            api::Result<std::vector<uint8_t>> remote =
                client.get(tenant, name);
            api::Result<std::vector<uint8_t>> local =
                direct[size_t(c)].get(name);
            ASSERT_TRUE(remote.ok()) << remote.status().toString();
            ASSERT_TRUE(local.ok()) << local.status().toString();
            EXPECT_EQ(*remote, *local) << tenant << "/" << name;
        }
    }
    EXPECT_TRUE(revived.drain().ok());
}

TEST(DaemonE2E, TrialSeriesMatchesDirectSubmit)
{
    const std::string root = freshRoot("trial");
    ServerOptions options;
    options.tenants = tenantConfig(root);
    Server server(options);
    ASSERT_TRUE(server.start().ok());

    Client client;
    ASSERT_TRUE(client.connect(server.port()).ok());
    const std::vector<uint8_t> payload = patternBytes(400, 3);
    ASSERT_TRUE(client.put("alice", "a.bin", payload).ok());
    constexpr uint32_t kTrials = 12;
    constexpr uint64_t kSeed = 777;
    api::Result<std::vector<uint8_t>> remote =
        client.trial("alice", kTrials, kSeed);
    ASSERT_TRUE(remote.ok()) << remote.status().toString();
    ASSERT_EQ(remote->size(), size_t(kTrials));

    api::Store direct = directStoreFor(options.tenants);
    ASSERT_TRUE(direct.put("a.bin", payload).ok());
    api::TrialJob job;
    job.trialSeeds = drawTrialSeeds(kSeed, kTrials);
    job.threads = options.tenants.threads;
    api::Result<api::TrialSeries> series =
        direct.submit(job).get();
    ASSERT_TRUE(series.ok()) << series.status().toString();
    ASSERT_EQ(series->trials.size(), size_t(kTrials));
    for (uint32_t i = 0; i < kTrials; ++i)
        EXPECT_EQ((*remote)[i] != 0, series->trials[i].success)
            << "trial " << i;
}

// ----------------------------------------------------------- wire statuses

TEST(DaemonE2E, QuotaExceededCrossesTheWire)
{
    const std::string root = freshRoot("quota");
    ServerOptions options;
    options.tenants = tenantConfig(root);
    options.tenants.quotaBytes = 1000;
    Server server(options);
    ASSERT_TRUE(server.start().ok());

    Client client;
    ASSERT_TRUE(client.connect(server.port()).ok());
    ASSERT_TRUE(
        client.put("alice", "a.bin", patternBytes(600, 1)).ok());
    api::Status status =
        client.put("alice", "b.bin", patternBytes(600, 2));
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), api::StatusCode::CapacityExceeded);
    EXPECT_NE(status.message().find("quota exceeded"),
              std::string::npos)
        << status.message();
    // The rejected put left no trace; a fitting one still lands.
    api::Result<std::vector<api::ObjectInfo>> listing =
        client.list("alice");
    ASSERT_TRUE(listing.ok());
    EXPECT_EQ(listing->size(), 1u);
    EXPECT_TRUE(
        client.put("alice", "c.bin", patternBytes(100, 3)).ok());
}

TEST(DaemonE2E, NotFoundStatusesMatchTheFacade)
{
    const std::string root = freshRoot("notfound");
    ServerOptions options;
    options.tenants = tenantConfig(root);
    Server server(options);
    ASSERT_TRUE(server.start().ok());

    Client client;
    ASSERT_TRUE(client.connect(server.port()).ok());
    ASSERT_TRUE(
        client.put("alice", "a.bin", patternBytes(100, 1)).ok());

    api::Result<std::vector<uint8_t>> missing =
        client.get("alice", "nope.bin");
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), api::StatusCode::NotFound);
    EXPECT_EQ(missing.status().message(),
              "no object named 'nope.bin'");

    // Read ops must not conjure tenants into existence.
    api::Result<std::vector<api::ObjectInfo>> ghost =
        client.list("bob");
    ASSERT_FALSE(ghost.ok());
    EXPECT_EQ(ghost.status().code(), api::StatusCode::NotFound);
    EXPECT_EQ(ghost.status().message(), "no tenant named 'bob'");
    std::ifstream ghost_pool(root + "/bob.dnapool");
    EXPECT_FALSE(bool(ghost_pool));
}

TEST(DaemonE2E, DataLossStatusesMatchTheFacade)
{
    // A channel that defeats the decoder: the daemon's get must fail
    // with the direct Store's code and message on the same inputs.
    const std::string root = freshRoot("dataloss");
    ServerOptions options;
    options.tenants = tenantConfig(root);
    options.tenants.errorRate = 0.2;
    options.tenants.coverage = 2;
    Server server(options);
    ASSERT_TRUE(server.start().ok());

    const std::vector<uint8_t> payload = patternBytes(300, 9);
    Client client;
    ASSERT_TRUE(client.connect(server.port()).ok());
    ASSERT_TRUE(client.put("alice", "a.bin", payload).ok());
    api::Result<std::vector<uint8_t>> remote =
        client.get("alice", "a.bin");

    api::Store direct = directStoreFor(options.tenants);
    ASSERT_TRUE(direct.put("a.bin", payload).ok());
    api::Result<std::vector<uint8_t>> local = direct.get("a.bin");
    ASSERT_FALSE(local.ok());
    EXPECT_EQ(local.status().code(), api::StatusCode::DataLoss);
    ASSERT_FALSE(remote.ok());
    EXPECT_EQ(remote.status().code(), local.status().code());
    EXPECT_EQ(remote.status().message(), local.status().message());
}

// ------------------------------------------------ stale reads + rebuilds

namespace {

/** Wait (bounded) for @p tenant's first background rebuild. */
bool
awaitBackgroundBuild(const Tenant &tenant)
{
    for (int i = 0; i < 1000 && tenant.backgroundBuilds() == 0; ++i)
        ::usleep(10 * 1000);
    return tenant.backgroundBuilds() > 0;
}

} // namespace

TEST(TenantSnapshots, GetsOfOlderNamesNeverWaitForARebuild)
{
    TenantRegistry registry(tenantConfig(freshRoot("stale")));
    api::Result<Tenant *> found = registry.getOrCreate("alice");
    ASSERT_TRUE(found.ok()) << found.status().toString();
    Tenant &tenant = **found;
    const std::vector<uint8_t> a = patternBytes(300, 1);
    const std::vector<uint8_t> b = patternBytes(200, 2);
    ASSERT_TRUE(tenant.put("a.bin", a).ok());
    ASSERT_TRUE(tenant.get("a.bin").ok()); // first snapshot
    ASSERT_EQ(tenant.syncBuilds(), 1u);

    ASSERT_TRUE(tenant.put("b.bin", b).ok());
    for (int i = 0; i < 100; ++i) {
        api::Result<std::vector<uint8_t>> got = tenant.get("a.bin");
        ASSERT_TRUE(got.ok()) << got.status().toString();
        ASSERT_EQ(*got, a) << "get " << i;
    }
    EXPECT_EQ(tenant.syncBuilds(), 1u);

    // The 100 stale hits queued one rebuild of the put batch; once it
    // is published the new name is served without a build either.
    ASSERT_TRUE(awaitBackgroundBuild(tenant));
    EXPECT_EQ(tenant.backgroundBuilds(), 1u);
    api::Result<std::vector<uint8_t>> got = tenant.get("b.bin");
    ASSERT_TRUE(got.ok()) << got.status().toString();
    EXPECT_EQ(*got, b);
    EXPECT_EQ(tenant.syncBuilds(), 1u);
}

TEST(TenantSnapshots, NewNameRightAfterItsPutReadsItsWrite)
{
    TenantRegistry registry(tenantConfig(freshRoot("ryw")));
    api::Result<Tenant *> found = registry.getOrCreate("alice");
    ASSERT_TRUE(found.ok()) << found.status().toString();
    Tenant &tenant = **found;
    ASSERT_TRUE(tenant.put("a.bin", patternBytes(300, 1)).ok());
    ASSERT_TRUE(tenant.get("a.bin").ok());
    for (int o = 0; o < 3; ++o) {
        const std::string name = "new" + std::to_string(o) + ".bin";
        const std::vector<uint8_t> data = patternBytes(150, uint8_t(o));
        ASSERT_TRUE(tenant.put(name, data).ok());
        api::Result<std::vector<uint8_t>> got = tenant.get(name);
        ASSERT_TRUE(got.ok()) << name << ": " << got.status().toString();
        EXPECT_EQ(*got, data) << name;
    }
}

TEST(TenantSnapshots, UnknownNameIsNotFoundWithoutABuild)
{
    TenantRegistry registry(tenantConfig(freshRoot("nobuild")));
    api::Result<Tenant *> found = registry.getOrCreate("alice");
    ASSERT_TRUE(found.ok()) << found.status().toString();
    Tenant &tenant = **found;
    ASSERT_TRUE(tenant.put("a.bin", patternBytes(300, 1)).ok());
    // Dirty tenant, no snapshot yet: NOT_FOUND comes from the
    // manifest, in Store::get's words, and builds nothing.
    api::Result<std::vector<uint8_t>> missing = tenant.get("nope.bin");
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), api::StatusCode::NotFound);
    EXPECT_EQ(missing.status().message(), "no object named 'nope.bin'");
    EXPECT_EQ(tenant.syncBuilds(), 0u);
    EXPECT_EQ(tenant.backgroundBuilds(), 0u);
}

TEST(TenantSnapshots, RepairingScrubForcesASynchronousBuild)
{
    TenantRegistry registry(tenantConfig(freshRoot("scrubsync")));
    api::Result<Tenant *> found = registry.getOrCreate("alice");
    ASSERT_TRUE(found.ok()) << found.status().toString();
    Tenant &tenant = **found;
    const std::vector<uint8_t> a = patternBytes(300, 1);
    ASSERT_TRUE(tenant.put("a.bin", a).ok());
    ASSERT_TRUE(tenant.get("a.bin").ok());
    ASSERT_EQ(tenant.syncBuilds(), 1u);

    api::ScrubOptions policy;
    policy.repairAll = true;
    api::Result<api::ScrubReport> report = tenant.scrub(policy);
    ASSERT_TRUE(report.ok()) << report.status().toString();
    ASSERT_GT(report->repaired, 0u);
    // The snapshot holds a.bin but predates the repair: never stale.
    api::Result<std::vector<uint8_t>> got = tenant.get("a.bin");
    ASSERT_TRUE(got.ok()) << got.status().toString();
    EXPECT_EQ(*got, a);
    EXPECT_EQ(tenant.syncBuilds(), 2u);
    EXPECT_EQ(tenant.backgroundBuilds(), 0u);
}

TEST(TenantSnapshots, StoppedWorkerLeavesGetsExact)
{
    TenantRegistry registry(tenantConfig(freshRoot("stopped")));
    api::Result<Tenant *> found = registry.getOrCreate("alice");
    ASSERT_TRUE(found.ok()) << found.status().toString();
    Tenant &tenant = **found;
    ASSERT_TRUE(tenant.put("a.bin", patternBytes(300, 1)).ok());
    ASSERT_TRUE(tenant.get("a.bin").ok());
    registry.stopRebuilds();
    ASSERT_TRUE(tenant.put("b.bin", patternBytes(200, 2)).ok());
    // With no worker to refresh it, a stale hit would stay stale
    // forever; the get rebuilds instead.
    ASSERT_TRUE(tenant.get("a.bin").ok());
    EXPECT_EQ(tenant.syncBuilds(), 2u);
    EXPECT_EQ(tenant.backgroundBuilds(), 0u);
}

TEST(DaemonE2E, GetsDuringBackgroundRebuilds)
{
    // Three readers fetch old names while a writer puts: stale hits,
    // queued rebuilds and publishes race on one tenant (TSan runs
    // this suite), then the drain stops the worker mid-stream.
    const std::string root = freshRoot("bgrebuild");
    ServerOptions options;
    options.tenants = tenantConfig(root);
    Server server(options);
    ASSERT_TRUE(server.start().ok());
    const uint16_t port = server.port();

    constexpr int kOld = 3;
    constexpr int kNew = 12;
    {
        Client seeder;
        ASSERT_TRUE(seeder.connect(port).ok());
        for (int o = 0; o < kOld; ++o)
            ASSERT_TRUE(seeder
                            .put("alice", "old" + std::to_string(o),
                                 patternBytes(120, uint8_t(o)))
                            .ok());
        ASSERT_TRUE(seeder.get("alice", "old0").ok());
    }

    std::atomic<bool> writing{ true };
    std::atomic<int> failures{ 0 };
    std::vector<std::thread> threads;
    for (int r = 0; r < 3; ++r) {
        threads.emplace_back([&, r] {
            Client client;
            if (!client.connect(port).ok()) {
                ++failures;
                return;
            }
            for (int i = r; writing.load() || i < r + 2 * kOld; ++i) {
                const int o = i % kOld;
                api::Result<std::vector<uint8_t>> got =
                    client.get("alice", "old" + std::to_string(o));
                if (!got.ok() || *got != patternBytes(120, uint8_t(o)))
                    ++failures;
            }
        });
    }
    threads.emplace_back([&] {
        Client client;
        if (!client.connect(port).ok()) {
            ++failures;
        } else {
            for (int o = 0; o < kNew; ++o) {
                const std::string name = "new" + std::to_string(o);
                const std::vector<uint8_t> data =
                    patternBytes(64, uint8_t(100 + o));
                if (!client.put("alice", name, data).ok())
                    ++failures;
                if (o % 4 == 3) {
                    api::Result<std::vector<uint8_t>> got =
                        client.get("alice", name);
                    if (!got.ok() || *got != data)
                        ++failures;
                }
            }
        }
        writing.store(false);
    });
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(failures.load(), 0);
    ASSERT_TRUE(server.drain().ok());

    // Every acknowledged put survived the drain.
    Server revived(options);
    ASSERT_TRUE(revived.start().ok());
    Client client;
    ASSERT_TRUE(client.connect(revived.port()).ok());
    for (int o = 0; o < kNew; ++o) {
        api::Result<std::vector<uint8_t>> got =
            client.get("alice", "new" + std::to_string(o));
        ASSERT_TRUE(got.ok()) << got.status().toString();
        EXPECT_EQ(*got, patternBytes(64, uint8_t(100 + o)));
    }
}

// ----------------------------------------------------- corruption handling

TEST(DaemonE2E, MalformedRequestFailsOnlyThatRequest)
{
    const std::string root = freshRoot("malformed");
    ServerOptions options;
    options.tenants = tenantConfig(root);
    Server server(options);
    ASSERT_TRUE(server.start().ok());

    Client client;
    ASSERT_TRUE(client.connect(server.port()).ok());
    // Well-framed, undecodable payload: unknown opcode.
    ASSERT_TRUE(client.sendRaw(frame({ 0x7E, 0x00, 0x00 })).ok());
    api::Result<Response> response = client.readResponse();
    ASSERT_TRUE(response.ok()) << response.status().toString();
    EXPECT_EQ(response->op, kOpProtocolError);
    EXPECT_EQ(response->status().code(),
              api::StatusCode::InvalidArgument);
    EXPECT_NE(response->message.find("malformed request"),
              std::string::npos);
    // Same connection still serves.
    EXPECT_TRUE(client.ping().ok());
}

TEST(DaemonE2E, CorruptFrameClosesOnlyThatConnection)
{
    const std::string root = freshRoot("corruptframe");
    ServerOptions options;
    options.tenants = tenantConfig(root);
    Server server(options);
    ASSERT_TRUE(server.start().ok());

    Client victim;
    ASSERT_TRUE(victim.connect(server.port()).ok());
    Request ping;
    ping.op = Op::Ping;
    std::vector<uint8_t> wire = frame(encodeRequest(ping));
    wire.back() = uint8_t(wire.back() ^ 0xA5); // payload CRC mismatch
    ASSERT_TRUE(victim.sendRaw(wire).ok());
    api::Result<Response> response = victim.readResponse();
    ASSERT_TRUE(response.ok()) << response.status().toString();
    EXPECT_EQ(response->op, kOpProtocolError);
    EXPECT_EQ(response->status().code(), api::StatusCode::DataLoss);
    // The poisoned stream is closed: the next call fails...
    EXPECT_FALSE(victim.ping().ok());
    // ...while other connections are untouched.
    Client fresh;
    ASSERT_TRUE(fresh.connect(server.port()).ok());
    EXPECT_TRUE(fresh.ping().ok());
}

TEST(DaemonE2E, EveryByteCorruptionSweepNeverWedgesTheServer)
{
    const std::string root = freshRoot("sweep");
    ServerOptions options;
    options.tenants = tenantConfig(root);
    Server server(options);
    ASSERT_TRUE(server.start().ok());
    const uint16_t port = server.port();

    Request ping;
    ping.op = Op::Ping;
    const std::vector<uint8_t> wire = frame(encodeRequest(ping));
    for (size_t i = 0; i < wire.size(); ++i) {
        std::vector<uint8_t> corrupt = wire;
        corrupt[i] = uint8_t(corrupt[i] ^ 0xFF);
        Client client;
        ASSERT_TRUE(client.connect(port).ok()) << "byte " << i;
        ASSERT_TRUE(client.sendRaw(corrupt).ok()) << "byte " << i;
        if (i >= 4 && i < 8) {
            // Length-field flips may leave the server legitimately
            // waiting for more bytes; just hang up.
            client.close();
            continue;
        }
        // Everything else is deterministically detected: magic and
        // CRC-field flips at the framing layer, payload flips by the
        // payload CRC — one clean protocol-error frame, then close.
        api::Result<Response> response = client.readResponse();
        ASSERT_TRUE(response.ok())
            << "byte " << i << ": " << response.status().toString();
        EXPECT_EQ(response->op, kOpProtocolError) << "byte " << i;
        EXPECT_FALSE(response->status().ok()) << "byte " << i;
    }
    // The server survived the sweep and still serves.
    Client client;
    ASSERT_TRUE(client.connect(port).ok());
    EXPECT_TRUE(client.ping().ok());
    EXPECT_TRUE(server.drain().ok());
}

// --------------------------------------------------------- resource bounds

namespace {

size_t
openFdCount()
{
    DIR *dir = ::opendir("/proc/self/fd");
    if (dir == nullptr)
        return 0;
    size_t n = 0;
    while (struct dirent *entry = ::readdir(dir))
        if (entry->d_name[0] != '.')
            ++n;
    ::closedir(dir);
    return n;
}

/**
 * A nonblocking loopback connection to @p port, or -1 when it is not
 * established within @p timeoutMs.
 */
int
connectWithin(uint16_t port, int timeoutMs)
{
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (fd < 0)
        return -1;
    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    struct pollfd pfd = { fd, POLLOUT, 0 };
    int err = 0;
    socklen_t len = sizeof err;
    if ((::connect(fd, reinterpret_cast<struct sockaddr *>(&addr),
                   sizeof addr) == 0 ||
         errno == EINPROGRESS) &&
        ::poll(&pfd, 1, timeoutMs) == 1 &&
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) == 0 &&
        err == 0)
        return fd;
    ::close(fd);
    return -1;
}

/**
 * The next response frame on @p fd, each wait bounded by
 * @p timeoutMs; false on timeout, EOF or a bad frame.
 */
bool
readResponseWithin(int fd, int timeoutMs, Response *response)
{
    std::vector<uint8_t> buf;
    struct pollfd pfd = { fd, POLLIN, 0 };
    while (::poll(&pfd, 1, timeoutMs) == 1) {
        uint8_t chunk[256];
        ssize_t n = ::read(fd, chunk, sizeof chunk);
        if (n <= 0)
            return false;
        buf.insert(buf.end(), chunk, chunk + n);
        std::vector<uint8_t> payload;
        size_t consumed = 0;
        std::string error;
        FrameStatus fs = extractFrame(buf, &payload, &consumed, &error);
        if (fs == FrameStatus::NeedMore)
            continue;
        return fs == FrameStatus::Ok &&
            decodeResponse(payload, response, &error);
    }
    return false;
}

/**
 * Ping over a fresh connection that is closed afterwards. Every step
 * is bounded by @p timeoutMs, so a server that stopped accepting
 * fails the call instead of hanging it.
 */
bool
pingOnFreshConnection(uint16_t port, int timeoutMs)
{
    int fd = connectWithin(port, timeoutMs);
    if (fd < 0)
        return false;
    Request ping;
    ping.op = Op::Ping;
    const std::vector<uint8_t> wire = frame(encodeRequest(ping));
    Response response;
    bool ok = ::write(fd, wire.data(), wire.size()) ==
            ssize_t(wire.size()) &&
        readResponseWithin(fd, timeoutMs, &response) &&
        response.status().ok();
    ::close(fd);
    return ok;
}

} // namespace

TEST(DaemonE2E, ShortConnectionsNeverExhaustTheFdLimit)
{
    // Regression: a finished connection used to keep its descriptor
    // and thread until drain(), so the daemon stopped serving after
    // about RLIMIT_NOFILE connections over its lifetime. Churn ten
    // times a lowered limit in short connections; the server must
    // keep serving and hold no more descriptors than before.
    const std::string root = freshRoot("reap");
    ServerOptions options;
    options.tenants = tenantConfig(root);
    Server server(options);
    ASSERT_TRUE(server.start().ok());

    struct rlimit saved;
    ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
    struct RestoreLimit
    {
        struct rlimit limit;
        ~RestoreLimit() { ::setrlimit(RLIMIT_NOFILE, &limit); }
    } restore{ saved };
    const size_t baseline = openFdCount();
    struct rlimit low = saved;
    low.rlim_cur = rlim_t(baseline + 16);
    ASSERT_LE(low.rlim_cur, saved.rlim_max);
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);

    const size_t churn = 10 * size_t(low.rlim_cur);
    for (size_t i = 0; i < churn; ++i)
        ASSERT_TRUE(pingOnFreshConnection(server.port(), 2000))
            << "connection " << i << " of " << churn;
    EXPECT_TRUE(pingOnFreshConnection(server.port(), 2000));

    // Connection threads close their descriptors as they exit; give
    // the last ones a moment.
    size_t open = openFdCount();
    for (int i = 0; i < 250 && open != baseline; ++i) {
        ::usleep(20 * 1000);
        open = openFdCount();
    }
    EXPECT_EQ(open, baseline);
    EXPECT_TRUE(server.drain().ok());
}

TEST(DaemonE2E, ConnectionBeyondTheCapGetsUnavailable)
{
    // Regression: connections were unbounded, one thread each. At cap
    // 2 a third connection gets one UNAVAILABLE frame, unprompted,
    // and is closed; the two it was refused for keep working.
    const std::string root = freshRoot("conncap");
    ServerOptions options;
    options.tenants = tenantConfig(root);
    options.maxConnections = 2;
    Server server(options);
    ASSERT_TRUE(server.start().ok());

    Client first, second;
    ASSERT_TRUE(first.connect(server.port()).ok());
    ASSERT_TRUE(first.ping().ok()); // accepted and counted
    ASSERT_TRUE(second.connect(server.port()).ok());
    ASSERT_TRUE(second.ping().ok());

    const int fd = connectWithin(server.port(), 2000);
    ASSERT_GE(fd, 0);
    Response refusal;
    const bool answered = readResponseWithin(fd, 2000, &refusal);
    ::close(fd);
    ASSERT_TRUE(answered) << "no frame on the connection beyond the cap";
    EXPECT_EQ(refusal.op, kOpProtocolError);
    EXPECT_EQ(refusal.status().code(), api::StatusCode::Unavailable);
    EXPECT_NE(refusal.message.find("connection limit"), std::string::npos)
        << refusal.message;

    Client third;
    ASSERT_TRUE(third.connect(server.port()).ok());
    EXPECT_EQ(third.ping().code(), api::StatusCode::Unavailable);

    EXPECT_TRUE(first.ping().ok());
    EXPECT_TRUE(second.ping().ok());

    // The cap counts live connections: closing one frees its slot.
    first.close();
    bool served = false;
    for (int i = 0; i < 100 && !served; ++i) {
        served = pingOnFreshConnection(server.port(), 2000);
        if (!served)
            ::usleep(20 * 1000);
    }
    EXPECT_TRUE(served);
    EXPECT_TRUE(second.ping().ok());
    EXPECT_TRUE(server.drain().ok());
}

TEST(DaemonE2E, IdleConnectionsAreClosedAndFreeTheCap)
{
    // Regression: a connection waited for its next request forever,
    // so maxConnections silent peers locked every later client out
    // with UNAVAILABLE. At cap 2 with a 300 ms idle deadline, two
    // connections that never send a byte are closed by the server,
    // and a third client is then served.
    const std::string root = freshRoot("idle");
    ServerOptions options;
    options.tenants = tenantConfig(root);
    options.maxConnections = 2;
    options.idleTimeoutMs = 300;
    Server server(options);
    ASSERT_TRUE(server.start().ok());

    int silent[2];
    for (int &fd : silent) {
        fd = connectWithin(server.port(), 2000);
        ASSERT_GE(fd, 0);
    }
    // The server closes each silent connection: EOF, no frame.
    for (int fd : silent) {
        struct pollfd pfd = { fd, POLLIN, 0 };
        ASSERT_EQ(::poll(&pfd, 1, 5000), 1) << "silent peer never closed";
        uint8_t byte;
        EXPECT_EQ(::read(fd, &byte, 1), 0);
        ::close(fd);
    }
    // The acceptor reaps the closed connections on its next pass.
    bool served = false;
    for (int i = 0; i < 100 && !served; ++i) {
        served = pingOnFreshConnection(server.port(), 2000);
        if (!served)
            ::usleep(20 * 1000);
    }
    EXPECT_TRUE(served);
    EXPECT_TRUE(server.drain().ok());
}

// -------------------------------------------------------------- durability

TEST(DaemonE2E, DrainSavesDirtyPoolsAsLoadableFiles)
{
    const std::string root = freshRoot("drain");
    ServerOptions options;
    options.tenants = tenantConfig(root);
    const std::vector<uint8_t> payloadA = patternBytes(300, 5);
    const std::vector<uint8_t> payloadB = patternBytes(250, 6);
    {
        Server server(options);
        ASSERT_TRUE(server.start().ok());
        Client client;
        ASSERT_TRUE(client.connect(server.port()).ok());
        ASSERT_TRUE(client.put("alice", "a.bin", payloadA).ok());
        ASSERT_TRUE(client.put("bob", "b.bin", payloadB).ok());
        // A stalled half-frame must not wedge the drain.
        Client straggler;
        ASSERT_TRUE(straggler.connect(server.port()).ok());
        ASSERT_TRUE(straggler.sendRaw({ 0x44, 0x53 }).ok());
        ASSERT_TRUE(server.drain().ok());
    }
    // Both pools reopen directly through the façade.
    for (const auto &expect :
         { std::make_pair(std::string("alice.dnapool"),
                          std::make_pair(std::string("a.bin"),
                                         payloadA)),
           std::make_pair(std::string("bob.dnapool"),
                          std::make_pair(std::string("b.bin"),
                                         payloadB)) }) {
        api::OpenOptions open_opt;
        open_opt.mode = api::OpenMode::ReadOnly;
        api::Result<api::Store> store = api::Store::openFile(
            root + "/" + expect.first,
            api::ChannelOptions()
                .errorRate(options.tenants.errorRate)
                .coverage(options.tenants.coverage),
            open_opt);
        ASSERT_TRUE(store.ok())
            << expect.first << ": " << store.status().toString();
        api::Result<std::vector<uint8_t>> got =
            store->get(expect.second.first);
        ASSERT_TRUE(got.ok()) << got.status().toString();
        EXPECT_EQ(*got, expect.second.second);
    }
    // A new server over the same root serves the saved state.
    Server revived(options);
    ASSERT_TRUE(revived.start().ok());
    Client client;
    ASSERT_TRUE(client.connect(revived.port()).ok());
    api::Result<std::vector<uint8_t>> got =
        client.get("alice", "a.bin");
    ASSERT_TRUE(got.ok()) << got.status().toString();
    EXPECT_EQ(*got, payloadA);
}

// --------------------------------------------------- SIGTERM (subprocess)

#ifdef DNASTORE_CLI_PATH

TEST(DaemonCli, SigtermMidLoadDrainsCleanAndDurable)
{
    const std::string root = freshRoot("sigterm");
    const std::string portFile = root + "/port.txt";

    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::execl(DNASTORE_CLI_PATH, DNASTORE_CLI_PATH, "serve",
                "--root", root.c_str(), "--port-file",
                portFile.c_str(), static_cast<char *>(nullptr));
        _exit(127); // exec failed
    }

    // Wait for the daemon to publish its port.
    uint16_t port = 0;
    for (int i = 0; i < 300 && port == 0; ++i) {
        std::ifstream f(portFile);
        unsigned p = 0;
        if (f >> p && p != 0)
            port = uint16_t(p);
        else
            ::usleep(100 * 1000);
    }
    ASSERT_NE(port, 0) << "daemon never wrote " << portFile;

    // Hammer with concurrent clients while SIGTERM lands mid-load.
    // Puts acked before the connection dies MUST survive the drain.
    constexpr int kThreads = 4;
    std::vector<std::vector<std::string>> acked(kThreads);
    std::vector<std::thread> load;
    load.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        load.emplace_back([&, t] {
            Client client;
            if (!client.connect(port).ok())
                return;
            const std::string tenant = "load" + std::to_string(t);
            for (int o = 0; o < 20; ++o) {
                const std::string name =
                    "o" + std::to_string(o) + ".bin";
                api::Status status = client.put(
                    tenant, name,
                    patternBytes(120, uint8_t(t * 32 + o)));
                if (!status.ok())
                    return; // drain closed the door — expected
                acked[size_t(t)].push_back(name);
                if (o % 5 == 0)
                    client.health(tenant); // interleave reads
            }
        });
    }
    ::usleep(300 * 1000); // let the load land mid-flight
    ASSERT_EQ(::kill(pid, SIGTERM), 0);
    for (std::thread &t : load)
        t.join();

    int wait_status = 0;
    ASSERT_EQ(::waitpid(pid, &wait_status, 0), pid);
    ASSERT_TRUE(WIFEXITED(wait_status))
        << "daemon did not exit cleanly";
    EXPECT_EQ(WEXITSTATUS(wait_status), 0);

    // Every tenant that got an acked put reopens as a loadable pool
    // containing every acked object.
    for (int t = 0; t < kThreads; ++t) {
        if (acked[size_t(t)].empty())
            continue;
        const std::string pool =
            root + "/load" + std::to_string(t) + ".dnapool";
        api::OpenOptions open_opt;
        open_opt.mode = api::OpenMode::ReadOnly;
        TenantConfig defaults;
        api::Result<api::Store> store = api::Store::openFile(
            pool,
            api::ChannelOptions()
                .errorRate(defaults.errorRate)
                .coverage(defaults.coverage),
            open_opt);
        ASSERT_TRUE(store.ok())
            << pool << ": " << store.status().toString();
        for (size_t o = 0; o < acked[size_t(t)].size(); ++o) {
            api::Result<std::vector<uint8_t>> got =
                store->get(acked[size_t(t)][o]);
            ASSERT_TRUE(got.ok())
                << pool << "/" << acked[size_t(t)][o] << ": "
                << got.status().toString();
            EXPECT_EQ(*got,
                      patternBytes(120, uint8_t(t * 32 + int(o))));
        }
    }
}

// The port file is replaced atomically through a fresh exclusive temp
// name, so a symlink planted at the old fixed `<port-file>.tmp` name
// can neither redirect the write nor become the port file.
TEST(DaemonCli, PortFileNeverWritesThroughAPlantedSymlink)
{
    const std::string dir = freshRoot("portfile");
    const std::string root = dir + "/root";
    const std::string portFile = dir + "/port";
    const std::string victim = dir + "/victim";
    ASSERT_EQ(::mkdir(root.c_str(), 0755), 0);
    std::ofstream(victim) << "precious";
    ASSERT_EQ(::symlink(victim.c_str(), (portFile + ".tmp").c_str()), 0);

    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::execl(DNASTORE_CLI_PATH, DNASTORE_CLI_PATH, "serve", "--root",
                root.c_str(), "--port-file", portFile.c_str(),
                static_cast<char *>(nullptr));
        _exit(127); // exec failed
    }
    unsigned port = 0;
    for (int i = 0; i < 300 && port == 0; ++i) {
        std::ifstream f(portFile);
        if (!(f >> port))
            ::usleep(100 * 1000);
    }
    ::kill(pid, SIGTERM);
    int wait_status = 0;
    ASSERT_EQ(::waitpid(pid, &wait_status, 0), pid);
    EXPECT_NE(port, 0u) << "daemon never wrote " << portFile;

    std::string kept;
    std::ifstream(victim) >> kept;
    EXPECT_EQ(kept, "precious");
    struct stat st;
    ASSERT_EQ(::lstat(portFile.c_str(), &st), 0);
    EXPECT_TRUE(S_ISREG(st.st_mode)) << portFile << " is not a regular file";
}

#endif // DNASTORE_CLI_PATH
