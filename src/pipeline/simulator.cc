#include "pipeline/simulator.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "channel/aging.hh"
#include "cluster/stream.hh"
#include "util/parallel.hh"

namespace dnastore {

namespace {

// Distinct per-purpose mixing constants (splitmix64's multipliers)
// keep the aging, scrub, and aging-trial seed streams disjoint from
// each other and from runTrial's 0x9e3779b97f4a7c15 stream.
constexpr uint64_t kAgingMix = 0xbf58476d1ce4e5b9ULL;
constexpr uint64_t kScrubMix = 0x94d049bb133111ebULL;
constexpr uint64_t kAgingTrialMix = 0xda942042e4dd58b5ULL;

} // namespace

StorageSimulator::StorageSimulator(const StorageConfig &cfg,
                                   LayoutScheme scheme,
                                   const ErrorModel &model, uint64_t seed)
    : StorageSimulator(cfg, scheme, ChannelProfile{ model, {}, {}, {}, {} },
                       seed)
{
}

StorageSimulator::StorageSimulator(const StorageConfig &cfg,
                                   LayoutScheme scheme,
                                   const ChannelProfile &profile,
                                   uint64_t seed)
    : cfg_(cfg), scheme_(scheme), channel_(profile.base),
      profileChannel_(profile), seed_(seed), encoder_(cfg, scheme),
      decoder_(cfg, scheme)
{
}

void
StorageSimulator::prepare(const FileBundle &bundle)
{
    unit_ = encoder_.encode(bundle);
    const bool priority = scheme_ == LayoutScheme::DnaMapper;
    stored_ = priority ? bundle.serializePriority() : bundle.serialize();
}

void
StorageSimulator::store(const FileBundle &bundle, size_t max_coverage)
{
    prepare(bundle);
    // Per-cluster RNG streams keep the pools bit-identical for every
    // cfg_.numThreads value, serial included, and for either storage
    // mode.
    pool_ = std::make_unique<ReadPool>(unit_.strands, channel_,
                                       max_coverage, seed_,
                                       cfg_.numThreads,
                                       cfg_.packedReadPools
                                           ? ReadStorage::Packed
                                           : ReadStorage::Flat);
    agedEpochs_ = 0;
    scrubGeneration_ = 0;
}

std::vector<std::vector<Strand>>
StorageSimulator::snapshotPool() const
{
    if (!pool_)
        throw std::logic_error("StorageSimulator: store() first");
    return pool_->snapshot();
}

size_t
StorageSimulator::poolCoverage() const
{
    return pool_ ? pool_->maxCoverage() : 0;
}

void
StorageSimulator::restore(const FileBundle &bundle,
                          const std::vector<std::vector<Strand>> &pools,
                          size_t max_coverage)
{
    prepare(bundle);
    if (pools.size() != unit_.strands.size())
        throw std::invalid_argument(
            "StorageSimulator: restored pools must hold one cluster "
            "per encoded strand");
    pool_ = std::make_unique<ReadPool>(pools, max_coverage,
                                       cfg_.packedReadPools
                                           ? ReadStorage::Packed
                                           : ReadStorage::Flat);
    agedEpochs_ = 0;
    scrubGeneration_ = 0;
}

RetrievalResult
StorageSimulator::decodeBatch(
    const ReadBatch &batch, size_t coverage_label,
    const std::vector<size_t> &forced_erasures) const
{
    RetrievalResult result;
    result.coverage = coverage_label;
    result.decoded = decoder_.decode(batch, forced_erasures);
    const auto &raw = result.decoded.rawStream;
    result.exactPayload = raw.size() >= stored_.size() &&
        std::equal(stored_.begin(), stored_.end(), raw.begin());
    return result;
}

RetrievalResult
StorageSimulator::retrieve(
    size_t coverage, const std::vector<size_t> &forced_erasures) const
{
    if (!pool_)
        throw std::logic_error("StorageSimulator: store() first");
    // The batch views alias the pool arenas: no read is copied on the
    // way to the decoder.
    ReadBatch batch;
    pool_->fillBatch(coverage, batch);
    return decodeBatch(batch, coverage, forced_erasures);
}

RetrievalResult
StorageSimulator::retrieveGamma(double mean_coverage, double shape,
                                uint64_t draw_seed) const
{
    if (!pool_)
        throw std::logic_error("StorageSimulator: store() first");
    Rng rng(draw_seed);
    auto counts =
        pool_->sampleCounts(CoverageModel::gamma(mean_coverage, shape),
                            rng);
    ReadBatch batch;
    pool_->fillBatch(counts, batch);
    return decodeBatch(batch, size_t(mean_coverage + 0.5), {});
}

ClusteredRetrievalResult
StorageSimulator::retrieveClustered(size_t coverage,
                                    const ClusterParams &params) const
{
    if (!pool_)
        throw std::logic_error("StorageSimulator: store() first");
    ReadBatch batch;
    pool_->fillBatch(coverage, batch);
    return decodeClusteredBatch(batch, coverage, params);
}

ClusteredRetrievalResult
StorageSimulator::decodeClusteredBatch(const ReadBatch &batch,
                                       size_t coverage_label,
                                       const ClusterParams &params) const
{
    size_t max_reads = 0;
    for (size_t cl = 0; cl < batch.clusters(); ++cl)
        max_reads = std::max(max_reads, batch.clusterSize(cl));

    // Interleave reads round-robin across molecules so the clusterer
    // sees them the way a sequencing run would deliver them, not
    // pre-grouped. The soup and the regrouped batch are views into
    // the caller's batch; only the engine keeps a (packed) copy.
    std::vector<StrandView> soup;
    std::vector<size_t> truth;
    soup.reserve(batch.views.size());
    truth.reserve(batch.views.size());
    StreamingClusterer engine(params);
    for (size_t j = 0; j < max_reads; ++j) {
        for (size_t cl = 0; cl < batch.clusters(); ++cl) {
            if (j < batch.clusterSize(cl)) {
                soup.push_back(batch.cluster(cl)[j]);
                truth.push_back(cl);
                engine.add(soup.back());
            }
        }
    }
    Clustering clustering = engine.finish();

    ReadBatch regrouped;
    regrouped.views.reserve(soup.size());
    regrouped.offsets.reserve(clustering.count() + 1);
    regrouped.offsets.push_back(0);
    for (const auto &members : clustering.members) {
        for (size_t r : members)
            regrouped.views.push_back(soup[r]);
        regrouped.offsets.push_back(regrouped.views.size());
    }

    ClusteredRetrievalResult out;
    out.clustersFound = clustering.count();
    out.quality = scoreClustering(clustering, truth);
    out.result = decodeBatch(regrouped, coverage_label, {});
    return out;
}

TrialOutcome
StorageSimulator::runTrial(const CoverageModel &coverage,
                           uint64_t trial_seed,
                           const ClusterParams *cluster_params) const
{
    if (unit_.strands.empty())
        throw std::logic_error(
            "StorageSimulator: prepare() or store() first");

    // All of the trial's randomness (coverage draws, dropout, PCR
    // lineages, sequencing noise) flows from this one stream, mixed
    // from the simulator seed and the trial seed — trials are mutually
    // independent and schedulable in any order on any thread.
    Rng rng(seed_ ^ (0x9e3779b97f4a7c15ULL * (trial_seed + 1)));

    const size_t n_clusters = unit_.strands.size();
    std::vector<size_t> counts(n_clusters);
    for (auto &count : counts)
        count = coverage.sample(rng);
    applyDropout(profileChannel_.profile().dropout, rng, counts);

    TrialOutcome out;
    ReadBatch batch;
    // A unit's strands share one length, so one table serves them all.
    const RampTable thresholds(profileChannel_.profile(),
                               unit_.strands[0].size());
    for (size_t c = 0; c < n_clusters; ++c) {
        if (counts[c] == 0) {
            // CoverageModel never samples 0, so a zero count here is
            // a dropout-erased cluster.
            ++out.clustersDropped;
            continue;
        }
        profileChannel_.generateCluster(unit_.strands[c], counts[c],
                                        rng, batch.scratch, thresholds);
        out.readsGenerated += counts[c];
    }
    // Views are taken only after generation: arena growth relocates.
    batch.offsets.reserve(n_clusters + 1);
    batch.offsets.push_back(0);
    batch.views.reserve(out.readsGenerated);
    size_t next_read = 0;
    for (size_t c = 0; c < n_clusters; ++c) {
        for (size_t r = 0; r < counts[c]; ++r)
            batch.views.push_back(batch.scratch.view(next_read++));
        batch.offsets.push_back(batch.views.size());
    }

    const size_t label = size_t(std::llround(coverage.mean()));
    if (cluster_params != nullptr) {
        ClusteredRetrievalResult clustered =
            decodeClusteredBatch(batch, label, *cluster_params);
        out.result = std::move(clustered.result);
        out.quality = clustered.quality;
        out.clustersFound = clustered.clustersFound;
        out.clustered = true;
    } else {
        out.result = decodeBatch(batch, label, {});
    }

    out.byteErrorRate = byteErrorRate(out.result.decoded.rawStream);
    return out;
}

double
StorageSimulator::byteErrorRate(const std::vector<uint8_t> &raw) const
{
    size_t bad = 0;
    for (size_t i = 0; i < stored_.size(); ++i) {
        if (i >= raw.size() || raw[i] != stored_[i])
            ++bad;
    }
    return stored_.empty() ? 0.0 : double(bad) / double(stored_.size());
}

size_t
StorageSimulator::age(size_t epochs)
{
    if (!pool_)
        throw std::logic_error("StorageSimulator: store() first");
    const AgingProfile &aging = profileChannel_.profile().aging;
    size_t lost = 0;
    for (size_t e = 0; e < epochs; ++e) {
        // The epoch counter advances even for a disabled profile (a
        // no-op epoch is the identity whatever its seed), so enabling
        // aging later never re-runs consumed epoch seeds.
        const uint64_t epoch_seed =
            seed_ ^ (kAgingMix * uint64_t(agedEpochs_ + 1));
        ++agedEpochs_;
        lost += agePoolEpoch(*pool_, aging, epoch_seed,
                             cfg_.numThreads);
    }
    return lost;
}

HealthReport
StorageSimulator::probeHealth() const
{
    if (!pool_)
        throw std::logic_error("StorageSimulator: store() first");
    return probePool(*pool_);
}

HealthReport
StorageSimulator::probePool(const ReadPool &pool) const
{
    ReadBatch batch;
    pool.fillBatch(pool.maxCoverage(), batch);
    HealthReport health;
    DecodedUnit decoded = decoder_.decode(batch, {}, &health.perCluster);
    health.clusters = pool.clusters();
    health.poolCoverage = pool.maxCoverage();
    health.agedEpochs = agedEpochs_;
    health.indexFaults = decoded.stats.indexFaults;
    health.erasedColumns = decoded.stats.erasedColumns;
    health.failedCodewords = decoded.stats.failedCodewords;
    health.exact = decoded.exact;

    double agreement_sum = 0.0;
    double agreement_min = 1.0;
    size_t live_clusters = 0;
    for (const ClusterHealthEntry &p : health.perCluster) {
        health.liveReads += p.reads;
        if (p.reads == 0) {
            ++health.emptyClusters;
            continue;
        }
        ++live_clusters;
        agreement_sum += p.agreement;
        agreement_min = std::min(agreement_min, p.agreement);
    }
    health.meanAgreement =
        live_clusters == 0 ? 0.0 : agreement_sum / double(live_clusters);
    health.minAgreement = live_clusters == 0 ? 0.0 : agreement_min;

    const size_t n_codewords = decoded.stats.codewordOk.size();
    health.perCodeword.resize(n_codewords);
    int min_margin = int(cfg_.paritySymbols);
    for (size_t j = 0; j < n_codewords; ++j) {
        CodewordHealthEntry &cw = health.perCodeword[j];
        cw.ok = decoded.stats.codewordOk[j] != 0;
        cw.errorsCorrected = decoded.stats.rsErrors[j];
        cw.erasuresCorrected = decoded.stats.rsErasures[j];
        cw.margin = cw.ok ? int(cfg_.paritySymbols) -
                int(2 * cw.errorsCorrected + cw.erasuresCorrected)
                          : -1;
        min_margin = std::min(min_margin, cw.margin);
    }
    health.minMargin = n_codewords == 0 ? 0 : min_margin;
    return health;
}

ScrubReport
StorageSimulator::scrub(const ScrubOptions &policy)
{
    if (!pool_)
        throw std::logic_error("StorageSimulator: store() first");
    const uint64_t scrub_seed =
        seed_ ^ (kScrubMix * uint64_t(scrubGeneration_ + 1));
    ++scrubGeneration_;
    return scrubPool(*pool_, policy, scrub_seed);
}

ScrubReport
StorageSimulator::scrubPool(ReadPool &pool, const ScrubOptions &policy,
                            uint64_t scrub_seed) const
{
    // Measure: one full-depth probe decode.
    ReadBatch batch;
    pool.fillBatch(pool.maxCoverage(), batch);
    std::vector<ClusterHealthEntry> probe;
    DecodedUnit decoded = decoder_.decode(batch, {}, &probe);

    ScrubReport report;
    report.clustersScanned = pool.clusters();
    report.failedCodewords = decoded.stats.failedCodewords;

    // Decide: the policy picks the low-margin clusters. A cluster
    // that lost its column claim (empty, index fault, duplicate) is
    // always low-margin — it currently contributes an erasure.
    std::vector<uint8_t> selected(pool.clusters(), 0);
    for (size_t c = 0; c < pool.clusters(); ++c) {
        const ClusterHealthEntry &p =
            c < probe.size() ? probe[c] : ClusterHealthEntry{};
        const bool low = policy.repairAll || !p.claimed ||
            p.reads < policy.minReads ||
            p.agreement < policy.minAgreement;
        selected[c] = low ? 1 : 0;
        report.lowMargin += low ? 1 : 0;
    }

    // Repair is safe only when EVERY codeword decoded: each codeword
    // touches each column exactly once, so one failed codeword means
    // every column (and thus every rewrite source) embeds an
    // untrusted symbol. Transiently unrepairable — deeper coverage
    // can clear it.
    if (!decoded.exact) {
        report.unrepairable = report.lowMargin;
        return report;
    }
    report.repairable = true;
    if (report.lowMargin == 0)
        return report;

    // The rewrite source is the RS-repaired data, not the stored
    // ground truth: re-encode the recovered bundle and cross-check it
    // against the stored unit (they must agree when every codeword
    // decoded — a mismatch is an internal inconsistency).
    if (!decoded.bundleOk)
        throw std::logic_error(
            "scrub: codewords decoded but the bundle did not parse");
    EncodedUnit repaired = encoder_.encode(decoded.bundle);
    if (repaired.strands != unit_.strands)
        throw std::logic_error(
            "scrub: the re-encoded repair does not match the stored "
            "unit");

    // Rewrite seeds are pre-drawn serially for ALL clusters, so the
    // selection set never shifts another cluster's synthesis noise,
    // and repairs are bit-identical at any thread count.
    Rng base(scrub_seed);
    std::vector<uint64_t> seeds(pool.clusters());
    for (auto &s : seeds)
        s = base.next();

    const size_t depth = pool.maxCoverage();
    parallelFor(pool.clusters(), cfg_.numThreads, [&](size_t c) {
        if (!selected[c])
            return;
        Rng rng(seeds[c]);
        std::vector<Strand> fresh(depth);
        for (auto &read : fresh)
            channel_.transmitInto(repaired.strands[c], rng, read);
        pool.replaceCluster(c, fresh);
    });
    for (size_t c = 0; c < pool.clusters(); ++c) {
        if (selected[c]) {
            ++report.repaired;
            report.readsRewritten += depth;
        }
    }
    return report;
}

AgingTrialOutcome
StorageSimulator::runAgingTrial(size_t coverage, uint64_t trial_seed,
                                size_t epochs, bool scrub_each_epoch,
                                const ScrubOptions &policy) const
{
    if (unit_.strands.empty())
        throw std::logic_error(
            "StorageSimulator: prepare() or store() first");

    // Trial-local pool and RNG stream: the stored pool is untouched
    // and trials are mutually independent (fan-out safe).
    Rng rng(seed_ ^ (kAgingTrialMix * (trial_seed + 1)));
    ReadPool local(unit_.strands, channel_, coverage, rng);

    const AgingProfile &aging = profileChannel_.profile().aging;
    AgingTrialOutcome out;
    out.epochSuccess.reserve(epochs);
    ReadBatch batch;
    for (size_t e = 0; e < epochs; ++e) {
        out.readsLost += agePoolEpoch(local, aging, rng.next(), 1);
        if (scrub_each_epoch) {
            out.repaired += scrubPool(local, policy, rng.next()).repaired;
        }
        local.fillBatch(coverage, batch);
        RetrievalResult result = decodeBatch(batch, coverage, {});
        out.epochSuccess.push_back(result.exactPayload ? 1 : 0);
        out.byteErrorRate = byteErrorRate(result.decoded.rawStream);
    }
    return out;
}

std::optional<size_t>
StorageSimulator::minCoverageForExact(
    size_t lo, size_t hi,
    const std::vector<size_t> &forced_erasures) const
{
    // One batch reused across the scan: views are re-pointed per
    // coverage, never copied.
    if (!pool_)
        throw std::logic_error("StorageSimulator: store() first");
    ReadBatch batch;
    for (size_t cov = lo; cov <= hi; ++cov) {
        pool_->fillBatch(cov, batch);
        if (decodeBatch(batch, cov, forced_erasures).exactPayload)
            return cov;
    }
    return std::nullopt;
}

} // namespace dnastore
