/**
 * @file
 * Per-tenant namespaces of the `dnastored` daemon.
 *
 * Each tenant is one `api::Store` backed by its own
 * `<root>/<tenant>.dnapool` file, a byte quota, and the snapshot
 * discipline that makes the store safe under concurrent clients:
 *
 *  - READS are lock-free against a shared immutable snapshot
 *    published via atomic shared_ptr: the manifest's names plus the
 *    Store's own memoized Retrieval (Store::retrieveShared), not a
 *    copy of it. A get() serves from that snapshot without touching
 *    the Store (whose own methods are not internally synchronized),
 *    through the same api::objectFrom ladder Store::get uses. Health
 *    reports snapshot through a generation-checked publish that
 *    rebuilds on the request path.
 *
 *  - STALE READS (stale-while-revalidate, RFC 5861): objects are
 *    immutable — a put never overwrites and there is no delete — so
 *    a get whose name the published read snapshot already holds is
 *    answered from it at once, even when puts have landed since, and
 *    the tenant is queued on the registry's one rebuild worker, which
 *    rebuilds once for the whole coalesced put batch and publishes.
 *    A get rebuilds synchronously (under the writer lock, as the
 *    first get of a fresh tenant does) only when the name is newer
 *    than the serving snapshot — read-your-writes — or when a
 *    repairing scrub has bumped the hard generation the snapshot was
 *    built at, since a repair changes existing objects' pools. A
 *    name the store never held is NOT_FOUND from Store::contains,
 *    with no rebuild. The contract this changes: whether a get
 *    decodes exactly can depend on which generation served it. An
 *    object present at generation g - 1 was decoded from a pool that
 *    held it, so serving that decode stays within the contract.
 *
 *  - MUTATIONS (put/scrub/save) serialize through the tenant's writer
 *    lock; a put and a repairing scrub bump the generation counter,
 *    so stale snapshots are recognized by generation mismatch, never
 *    by mutation-time bookkeeping — the Store memo's invalidation
 *    pattern, one level up.
 *
 *  - PUT COALESCING: a put only appends to the store's FileBundle
 *    (cheap) and never queues a rebuild — synthesis is deferred to
 *    the next snapshot build, so N small puts between reads share one
 *    FileBundle encode + one synthesis instead of N.
 *
 * Quotas ride the existing CAPACITY_EXCEEDED admission path: the
 * tenant's byte quota is checked before Store::put, whose own unit
 * capacity check still applies after it.
 */

#ifndef DNASTORE_DAEMON_TENANT_HH
#define DNASTORE_DAEMON_TENANT_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hh"

namespace dnastore {
namespace daemon {

/** How new tenant stores are configured. */
struct TenantConfig
{
    std::string root;        //!< Directory holding the pool files.
    uint64_t quotaBytes = 0; //!< Per-tenant payload quota (0 = none).
    size_t threads = 1;      //!< Store decode threads.
    bool packedReadPools = false;
    double errorRate = 0.03; //!< Channel of newly created stores.
    size_t coverage = 8;
    uint64_t unitSeed = 20220618;
};

/** Immutable read state of one generation, shared across readers. */
struct ReadSnapshot
{
    uint64_t generation = 0;

    /** The tenant's hard generation at build (repairs bump it). */
    uint64_t hardGeneration = 0;

    /** The manifest's object names (name lookup for NotFound). */
    std::vector<std::string> names;

    /** Store::retrieveShared()'s pass, or its failure. */
    api::Result<std::shared_ptr<const api::Retrieval>> retrieval;
};

/** Immutable health probe result, shared across readers. */
struct HealthSnapshot
{
    uint64_t generation = 0;
    api::Result<std::string> json; //!< HealthReport::toJson(), or why not.
};

class TenantRegistry;

/** One tenant: a Store, its pool path, quota, and snapshots. */
class Tenant
{
  public:
    /** @p registry runs this tenant's background rebuilds. */
    Tenant(std::string name, const TenantConfig &config,
           TenantRegistry &registry);

    /**
     * Open the backing store: from the tenant's `.dnapool` file when
     * one exists (a previous run's state), fresh otherwise. Called
     * once, under the registry lock, before the tenant is published.
     */
    api::Status open();

    /** Quota check + Store::put + generation bump, under the lock. */
    api::Status put(const std::string &objectName,
                    std::vector<uint8_t> data);

    /**
     * Serve one object from the published read snapshot: at once when
     * it is current or already holds @p objectName (the stale-read
     * rule above; a stale hit queues a background rebuild), after a
     * synchronous rebuild otherwise. The snapshot holds the store's
     * memoized Retrieval and answers through api::objectFrom, so
     * results and error statuses are Store::get's on the serving
     * generation's store state by construction.
     */
    api::Result<std::vector<uint8_t>> get(const std::string &objectName);

    /** Directory of stored objects (insertion order). */
    std::vector<api::ObjectInfo> list();

    /** Health report JSON from the current health snapshot. */
    api::Result<std::string> healthJson();

    /** Synchronous scrub under the writer lock. */
    api::Result<api::ScrubReport> scrub(const api::ScrubOptions &options);

    /**
     * Run a Monte-Carlo trial batch. Submission serializes through
     * the writer lock; the batch itself runs on the calling thread
     * after the lock is released, against the job's own simulator
     * snapshot, so readers and writers proceed while trials run.
     */
    api::Result<api::TrialSeries> trial(uint32_t trials, uint64_t seed);

    /** Persist to the pool path now (clears the dirty flag). */
    api::Status save();

    /** Save if mutations landed since the last save (drain path). */
    api::Status saveIfDirty();

    /** Read snapshots a get built on the request path. */
    uint64_t syncBuilds() const
    {
        return syncBuilds_.load(std::memory_order_relaxed);
    }

    /** Read snapshots the rebuild worker built. */
    uint64_t backgroundBuilds() const
    {
        return backgroundBuilds_.load(std::memory_order_relaxed);
    }

  private:
    friend class TenantRegistry;

    /**
     * Queue this tenant on the rebuild worker unless it is queued
     * already; false when the worker is stopped or cannot start.
     */
    bool queueRebuild();

    /** The rebuild worker's job: rebuild the read snapshot if stale. */
    void rebuildQueued();

    /** Build and publish the current read snapshot; mu_ held. */
    std::shared_ptr<const ReadSnapshot> publishReadSnapshot();

    const std::string name_;
    const std::string poolPath_;
    const TenantConfig config_;
    TenantRegistry &registry_;

    /** Serializes mutations and snapshot rebuilds. */
    std::mutex mu_;
    std::optional<api::Store> store_; //!< Guarded by mu_.
    bool dirty_ = false;              //!< Guarded by mu_.

    /** Bumped (under mu_) by every successful mutation. */
    std::atomic<uint64_t> generation_{ 1 };

    /**
     * Bumped (under mu_) by mutations that change existing objects'
     * pools (a repairing scrub): a snapshot built at an older hard
     * generation is never served stale.
     */
    std::atomic<uint64_t> hardGeneration_{ 0 };

    /** On the rebuild worker's queue (de-duplicates queueing). */
    std::atomic<bool> queued_{ false };

    std::atomic<uint64_t> syncBuilds_{ 0 };
    std::atomic<uint64_t> backgroundBuilds_{ 0 };

    /** Published snapshots (std::atomic_load/store access). */
    std::shared_ptr<const ReadSnapshot> readSnap_;
    std::shared_ptr<const HealthSnapshot> healthSnap_;
};

/**
 * Name → Tenant map; tenants are created once and never removed.
 * Owns the one rebuild worker: a thread, started on the first queued
 * rebuild, that takes tenants off a FIFO and rebuilds each one's read
 * snapshot under its writer lock.
 */
class TenantRegistry
{
  public:
    explicit TenantRegistry(const TenantConfig &config);

    /** Stops the rebuild worker before any tenant is destroyed. */
    ~TenantRegistry();

    TenantRegistry(const TenantRegistry &) = delete;
    TenantRegistry &operator=(const TenantRegistry &) = delete;

    /**
     * The named tenant, creating (and opening) it on first use.
     * A failed open is not cached: the error returns to the client
     * and a later request retries.
     */
    api::Result<Tenant *> getOrCreate(const std::string &name);

    /**
     * The named tenant only if it already exists in memory or has a
     * pool file on disk — read ops must not conjure empty tenants.
     */
    api::Result<Tenant *> find(const std::string &name);

    /** Drain path: persist every dirty tenant; first error wins. */
    api::Status saveDirty();

    /**
     * Stop the rebuild worker: finish the in-flight rebuild, drop the
     * queued ones, join. Later stale gets rebuild synchronously.
     * Idempotent.
     */
    void stopRebuilds();

  private:
    friend class Tenant;

    /** Append @p tenant to the worker's FIFO; false once stopped. */
    bool enqueueRebuild(Tenant *tenant);

    void rebuildLoop();

    const TenantConfig config_;
    std::mutex mu_;
    std::map<std::string, std::unique_ptr<Tenant>> tenants_;

    std::mutex rebuildMu_;
    std::condition_variable rebuildCv_;
    std::deque<Tenant *> rebuildQueue_; //!< Guarded by rebuildMu_.
    bool rebuildStop_ = false;          //!< Guarded by rebuildMu_.
    std::thread rebuildWorker_;         //!< Started under rebuildMu_.
};

} // namespace daemon
} // namespace dnastore

#endif // DNASTORE_DAEMON_TENANT_HH
