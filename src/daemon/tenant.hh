/**
 * @file
 * Per-tenant namespaces of the `dnastored` daemon.
 *
 * Each tenant is one `api::Store` backed by its own
 * `<root>/<tenant>.dnapool` file, a byte quota, and the snapshot
 * discipline that makes the store safe under concurrent clients:
 *
 *  - READS are lock-free against a shared immutable snapshot: the
 *    first get() after a mutation takes the writer lock once and
 *    publishes a ReadSnapshot via atomic shared_ptr — the manifest's
 *    names plus the Store's own memoized Retrieval
 *    (Store::retrieveShared), not a copy of it. Every later get()
 *    serves from that snapshot without touching the Store (whose own
 *    methods are not internally synchronized), through the same
 *    api::objectFrom ladder Store::get uses. Health reports snapshot
 *    through the same generation-checked publish helper.
 *
 *  - MUTATIONS (put/scrub/save) serialize through the tenant's writer
 *    lock and bump the generation counter, so stale snapshots are
 *    invalidated by generation mismatch, never by mutation-time
 *    bookkeeping — the PR 7 memo-invalidation pattern, one level up.
 *
 *  - PUT COALESCING: a put only appends to the store's FileBundle
 *    (cheap) — synthesis is deferred to the next snapshot build, so N
 *    small puts between reads share one FileBundle encode + one
 *    synthesis instead of N.
 *
 * Quotas ride the existing CAPACITY_EXCEEDED admission path: the
 * tenant's byte quota is checked before Store::put, whose own unit
 * capacity check still applies after it.
 */

#ifndef DNASTORE_DAEMON_TENANT_HH
#define DNASTORE_DAEMON_TENANT_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
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
    bool exact = false;
};

/** One tenant: a Store, its pool path, quota, and snapshots. */
class Tenant
{
  public:
    Tenant(std::string name, const TenantConfig &config);

    /**
     * Open the backing store: from the tenant's `.dnapool` file when
     * one exists (a previous run's state), fresh otherwise. Called
     * once, under the registry lock, before the tenant is published.
     */
    api::Status open();

    const std::string &name() const { return name_; }

    /** Quota check + Store::put + generation bump, under the lock. */
    api::Status put(const std::string &objectName,
                    std::vector<uint8_t> data);

    /**
     * Serve one object from the current read snapshot (building it
     * first if stale). The snapshot holds the store's memoized
     * Retrieval and answers through api::objectFrom, so results and
     * error statuses are Store::get's on the same store state by
     * construction.
     */
    api::Result<std::vector<uint8_t>> get(const std::string &objectName);

    /** Directory of stored objects (insertion order). */
    std::vector<api::ObjectInfo> list();

    /** Health report JSON from the current health snapshot. */
    api::Result<std::string> healthJson(bool *exact);

    /** Synchronous scrub under the writer lock. */
    api::Result<api::ScrubReport> scrub(const api::ScrubOptions &options);

    /**
     * Run a Monte-Carlo trial batch. Submission serializes through
     * the writer lock; the fan-out itself runs on the job's
     * dispatcher thread against its own simulator snapshot, so
     * readers proceed while trials run.
     */
    api::Result<api::TrialSeries> trial(uint32_t trials, uint64_t seed);

    /** Persist to the pool path now (clears the dirty flag). */
    api::Status save();

    /** Save if mutations landed since the last save (drain path). */
    api::Status saveIfDirty();

  private:
    /**
     * The snapshot in @p slot, rebuilt by @p build under the writer
     * lock when its generation is stale: the one publish rule of the
     * read and health snapshots.
     */
    template <typename Snapshot, typename Build>
    std::shared_ptr<const Snapshot> currentSnapshot(
        std::shared_ptr<const Snapshot> &slot, Build build);

    const std::string name_;
    const std::string poolPath_;
    const TenantConfig config_;

    /** Serializes mutations and snapshot rebuilds. */
    std::mutex mu_;
    std::optional<api::Store> store_; //!< Guarded by mu_.
    bool dirty_ = false;              //!< Guarded by mu_.

    /** Bumped (under mu_) by every successful mutation. */
    std::atomic<uint64_t> generation_{ 1 };

    /** Published snapshots (std::atomic_load/store access). */
    std::shared_ptr<const ReadSnapshot> readSnap_;
    std::shared_ptr<const HealthSnapshot> healthSnap_;
};

/** Name → Tenant map; tenants are created once and never removed. */
class TenantRegistry
{
  public:
    explicit TenantRegistry(const TenantConfig &config);

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

  private:
    const TenantConfig config_;
    std::mutex mu_;
    std::map<std::string, std::unique_ptr<Tenant>> tenants_;
};

} // namespace daemon
} // namespace dnastore

#endif // DNASTORE_DAEMON_TENANT_HH
