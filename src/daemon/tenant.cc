#include "daemon/tenant.hh"

#include <algorithm>
#include <fstream>
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

} // namespace

// ------------------------------------------------------------------ Tenant

template <typename Snapshot, typename Build>
std::shared_ptr<const Snapshot>
Tenant::currentSnapshot(std::shared_ptr<const Snapshot> &slot,
                        Build build)
{
    // Fast path: no lock, one atomic shared_ptr load. A snapshot is
    // valid while its generation matches the tenant's.
    std::shared_ptr<const Snapshot> snap = std::atomic_load(&slot);
    uint64_t generation = generation_.load(std::memory_order_acquire);
    if (snap && snap->generation == generation)
        return snap;
    std::lock_guard<std::mutex> lock(mu_);
    snap = std::atomic_load(&slot);
    generation = generation_.load(std::memory_order_acquire);
    if (snap && snap->generation == generation)
        return snap;
    snap = std::make_shared<const Snapshot>(build(generation));
    std::atomic_store(&slot, snap);
    return snap;
}

Tenant::Tenant(std::string name, const TenantConfig &config)
    : name_(std::move(name)),
      poolPath_(config.root + "/" + name_ + ".dnapool"),
      config_(config)
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

api::Result<std::vector<uint8_t>>
Tenant::get(const std::string &objectName)
{
    std::shared_ptr<const ReadSnapshot> snap =
        currentSnapshot(readSnap_, [this](uint64_t generation) {
            std::vector<std::string> names;
            for (api::ObjectInfo &info : store_->list())
                names.push_back(std::move(info.name));
            return ReadSnapshot{ generation, std::move(names),
                                 store_->retrieveShared() };
        });
    if (std::find(snap->names.begin(), snap->names.end(), objectName) ==
        snap->names.end())
        return api::Status::notFound(api::formatMessage(
            "no object named '%s'", objectName.c_str()));
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
Tenant::healthJson(bool *exact)
{
    std::shared_ptr<const HealthSnapshot> snap =
        currentSnapshot(healthSnap_, [this](uint64_t generation) {
            api::Result<api::HealthReport> health = store_->health();
            if (!health.ok())
                return HealthSnapshot{ generation, health.status() };
            return HealthSnapshot{ generation, health->toJson(),
                                   health->exact };
        });
    if (snap->json.ok() && exact != nullptr)
        *exact = snap->exact;
    return snap->json;
}

api::Result<api::ScrubReport>
Tenant::scrub(const api::ScrubOptions &options)
{
    std::lock_guard<std::mutex> lock(mu_);
    api::Result<api::ScrubReport> report = store_->scrub(options);
    if (report.ok() && report->repaired > 0) {
        dirty_ = true;
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
        // synchronized); the batch itself runs against the job's own
        // simulator snapshot, so the lock is released while it runs.
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

api::Result<Tenant *>
TenantRegistry::getOrCreate(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tenants_.find(name);
    if (it != tenants_.end())
        return it->second.get();
    auto tenant = std::make_unique<Tenant>(name, config_);
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

} // namespace daemon
} // namespace dnastore
