#include "daemon/tenant.hh"

#include <algorithm>
#include <fstream>
#include <system_error>
#include <utility>

#include "daemon/protocol.hh"

namespace dnastore {
namespace daemon {

namespace {

bool
fileExists(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    return bool(f);
}

api::ChannelOptions
channelFor(const TenantConfig &config)
{
    return api::ChannelOptions()
        .errorRate(config.errorRate)
        .coverage(config.coverage);
}

bool
holds(const ReadSnapshot &snap, const std::string &objectName)
{
    return std::find(snap.names.begin(), snap.names.end(), objectName) !=
        snap.names.end();
}

/** Store::get's status for a name it does not hold, word for word. */
api::Status
notFound(const std::string &objectName)
{
    return api::Status::notFound(
        api::formatMessage("no object named '%s'", objectName.c_str()));
}

} // namespace

// ------------------------------------------------------------------ Tenant

Tenant::Tenant(std::string name, const TenantConfig &config,
               TenantRegistry &registry)
    : name_(std::move(name)),
      poolPath_(config.root + "/" + name_ + ".dnapool"),
      config_(config),
      registry_(registry)
{}

api::Status
Tenant::open()
{
    api::OpenOptions open_opt;
    open_opt.mode = api::OpenMode::ReadWrite;
    open_opt.threads = config_.threads;
    open_opt.packedReadPools = config_.packedReadPools;

    api::Result<api::Store> store = fileExists(poolPath_)
        ? api::Store::openFile(poolPath_, channelFor(config_), open_opt)
        : api::Store::open(api::StoreOptions()
                               .autoGeometry(true)
                               .threads(config_.threads)
                               .packedReadPools(config_.packedReadPools)
                               .unitSeed(config_.unitSeed),
                           channelFor(config_));
    if (!store.ok())
        return store.status();
    store_.emplace(std::move(*store));
    return api::Status();
}

api::Status
Tenant::put(const std::string &objectName, std::vector<uint8_t> data)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (config_.quotaBytes > 0 &&
        store_->totalBytes() + data.size() > config_.quotaBytes)
        return api::Status::capacityExceeded(api::formatMessage(
            "tenant '%s' quota exceeded: %zu stored + %zu new > %zu "
            "byte quota",
            name_.c_str(), store_->totalBytes(), data.size(),
            size_t(config_.quotaBytes)));
    api::Status status = store_->put(objectName, std::move(data));
    if (status.ok()) {
        // Synthesis is NOT triggered here: consecutive puts coalesce
        // into the shared FileBundle and the next snapshot rebuild
        // pays one encode + synthesis for the whole batch.
        dirty_ = true;
        generation_.fetch_add(1, std::memory_order_release);
    }
    return status;
}

std::shared_ptr<const ReadSnapshot>
Tenant::publishReadSnapshot()
{
    std::vector<std::string> names;
    for (api::ObjectInfo &info : store_->list())
        names.push_back(std::move(info.name));
    auto snap = std::make_shared<const ReadSnapshot>(ReadSnapshot{
        generation_.load(std::memory_order_relaxed),
        hardGeneration_.load(std::memory_order_relaxed), std::move(names),
        store_->retrieveShared() });
    std::atomic_store(&readSnap_, snap);
    return snap;
}

bool
Tenant::queueRebuild()
{
    if (queued_.exchange(true, std::memory_order_acq_rel))
        return true;
    if (registry_.enqueueRebuild(this))
        return true;
    queued_.store(false, std::memory_order_release);
    return false;
}

void
Tenant::rebuildQueued()
{
    // Cleared before the build, so a put landing after it re-queues
    // on the next stale get instead of being lost.
    queued_.store(false, std::memory_order_release);
    std::lock_guard<std::mutex> lock(mu_);
    std::shared_ptr<const ReadSnapshot> snap = std::atomic_load(&readSnap_);
    if (snap && snap->generation ==
            generation_.load(std::memory_order_relaxed))
        return;
    publishReadSnapshot();
    backgroundBuilds_.fetch_add(1, std::memory_order_relaxed);
}

api::Result<std::vector<uint8_t>>
Tenant::get(const std::string &objectName)
{
    // Fast path: no lock. A current snapshot serves every name; a
    // stale one serves the names it holds unless a repair landed
    // since it was built, and queues the rebuild that refreshes it.
    std::shared_ptr<const ReadSnapshot> snap = std::atomic_load(&readSnap_);
    bool servable = false;
    if (snap) {
        servable =
            snap->generation == generation_.load(std::memory_order_acquire) ||
            (snap->hardGeneration ==
                 hardGeneration_.load(std::memory_order_acquire) &&
             holds(*snap, objectName) && queueRebuild());
    }
    if (!servable) {
        std::lock_guard<std::mutex> lock(mu_);
        snap = std::atomic_load(&readSnap_);
        if (!snap || snap->generation !=
                generation_.load(std::memory_order_relaxed)) {
            // A name the store never held needs no decode to refuse.
            if (!store_->contains(objectName))
                return notFound(objectName);
            snap = publishReadSnapshot();
            syncBuilds_.fetch_add(1, std::memory_order_relaxed);
        }
    }
    if (!holds(*snap, objectName))
        return notFound(objectName);
    if (!snap->retrieval.ok())
        return snap->retrieval.status();
    return api::objectFrom(**snap->retrieval, objectName);
}

std::vector<api::ObjectInfo>
Tenant::list()
{
    std::lock_guard<std::mutex> lock(mu_);
    return store_->list();
}

api::Result<std::string>
Tenant::healthJson()
{
    // Health is never served stale: a snapshot of an older
    // generation is rebuilt under the writer lock before it answers.
    std::shared_ptr<const HealthSnapshot> snap =
        std::atomic_load(&healthSnap_);
    if (!snap ||
        snap->generation != generation_.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> lock(mu_);
        snap = std::atomic_load(&healthSnap_);
        const uint64_t generation =
            generation_.load(std::memory_order_relaxed);
        if (!snap || snap->generation != generation) {
            api::Result<api::HealthReport> health = store_->health();
            snap = std::make_shared<const HealthSnapshot>(
                health.ok() ? HealthSnapshot{ generation, health->toJson() }
                            : HealthSnapshot{ generation, health.status() });
            std::atomic_store(&healthSnap_, snap);
        }
    }
    return snap->json;
}

api::Result<api::ScrubReport>
Tenant::scrub(const api::ScrubOptions &options)
{
    std::lock_guard<std::mutex> lock(mu_);
    api::Result<api::ScrubReport> report = store_->scrub(options);
    if (report.ok() && report->repaired > 0) {
        // Repaired pools re-decode existing objects: no snapshot from
        // before the repair may serve, stale or not.
        dirty_ = true;
        hardGeneration_.fetch_add(1, std::memory_order_release);
        generation_.fetch_add(1, std::memory_order_release);
    }
    return report;
}

api::Result<api::TrialSeries>
Tenant::trial(uint32_t trials, uint64_t seed)
{
    api::Future<api::Result<api::TrialSeries>> fut;
    {
        // Submission needs the lock (Store methods are not internally
        // synchronized); the batch runs at get(), below, against the
        // job's own simulator snapshot, so no lock is held while it
        // runs.
        std::lock_guard<std::mutex> lock(mu_);
        api::TrialJob job;
        job.trialSeeds = drawTrialSeeds(seed, trials);
        job.threads = config_.threads;
        fut = store_->submit(job);
    }
    return fut.get();
}

api::Status
Tenant::save()
{
    std::lock_guard<std::mutex> lock(mu_);
    api::Status status = store_->save(poolPath_, true);
    if (status.ok())
        dirty_ = false;
    return status;
}

api::Status
Tenant::saveIfDirty()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!dirty_)
        return api::Status();
    api::Status status = store_->save(poolPath_, true);
    if (status.ok())
        dirty_ = false;
    return status;
}

// ---------------------------------------------------------- TenantRegistry

TenantRegistry::TenantRegistry(const TenantConfig &config)
    : config_(config)
{}

TenantRegistry::~TenantRegistry()
{
    stopRebuilds();
}

api::Result<Tenant *>
TenantRegistry::getOrCreate(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tenants_.find(name);
    if (it != tenants_.end())
        return it->second.get();
    auto tenant = std::make_unique<Tenant>(name, config_, *this);
    api::Status status = tenant->open();
    if (!status.ok())
        return status;
    Tenant *raw = tenant.get();
    tenants_.emplace(name, std::move(tenant));
    return raw;
}

api::Result<Tenant *>
TenantRegistry::find(const std::string &name)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = tenants_.find(name);
        if (it != tenants_.end())
            return it->second.get();
    }
    // Not in memory: a previous run's pool file still counts.
    if (!fileExists(config_.root + "/" + name + ".dnapool"))
        return api::Status::notFound(api::formatMessage(
            "no tenant named '%s'", name.c_str()));
    return getOrCreate(name);
}

api::Status
TenantRegistry::saveDirty()
{
    std::lock_guard<std::mutex> lock(mu_);
    api::Status first;
    for (auto &entry : tenants_) {
        api::Status status = entry.second->saveIfDirty();
        if (!status.ok() && first.ok())
            first = status;
    }
    return first;
}

bool
TenantRegistry::enqueueRebuild(Tenant *tenant)
{
    std::lock_guard<std::mutex> lock(rebuildMu_);
    if (rebuildStop_)
        return false;
    if (!rebuildWorker_.joinable()) {
        try {
            rebuildWorker_ = std::thread([this] { rebuildLoop(); });
        } catch (const std::system_error &) {
            return false; // out of threads: the get rebuilds itself
        }
    }
    rebuildQueue_.push_back(tenant);
    rebuildCv_.notify_one();
    return true;
}

void
TenantRegistry::rebuildLoop()
{
    std::unique_lock<std::mutex> lock(rebuildMu_);
    while (true) {
        rebuildCv_.wait(lock, [this] {
            return rebuildStop_ || !rebuildQueue_.empty();
        });
        if (rebuildStop_)
            return;
        Tenant *tenant = rebuildQueue_.front();
        rebuildQueue_.pop_front();
        lock.unlock();
        tenant->rebuildQueued();
        lock.lock();
    }
}

void
TenantRegistry::stopRebuilds()
{
    std::thread worker;
    {
        std::lock_guard<std::mutex> lock(rebuildMu_);
        rebuildStop_ = true;
        worker.swap(rebuildWorker_);
    }
    rebuildCv_.notify_all();
    if (worker.joinable())
        worker.join();
    // Dropped rebuilds: their tenants are no longer queued anywhere.
    std::lock_guard<std::mutex> lock(rebuildMu_);
    for (Tenant *tenant : rebuildQueue_)
        tenant->queued_.store(false, std::memory_order_release);
    rebuildQueue_.clear();
}

} // namespace daemon
} // namespace dnastore
