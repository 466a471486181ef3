/**
 * @file
 * End-to-end storage simulator and experiment driver.
 *
 * Ties the pipeline to the channel exactly as the paper's methodology
 * does (section 6.1.2): encode once, generate a large pool of noisy
 * reads per molecule, then decode at progressively higher coverage by
 * taking pool prefixes. Also provides the minimum-coverage search
 * behind Figures 12 and 13.
 */

#ifndef DNASTORE_PIPELINE_SIMULATOR_HH
#define DNASTORE_PIPELINE_SIMULATOR_HH

#include <memory>
#include <optional>
#include <vector>

#include "channel/coverage.hh"
#include "channel/ids_channel.hh"
#include "channel/read_pool.hh"
#include "channel/stressors.hh"
#include "cluster/clusterer.hh"
#include "pipeline/bundle.hh"
#include "pipeline/config.hh"
#include "pipeline/decoder.hh"
#include "pipeline/encoder.hh"
#include "pipeline/health.hh"

namespace dnastore {

/** One coverage point of a retrieval sweep. */
struct RetrievalResult
{
    size_t coverage = 0;
    DecodedUnit decoded;
    /** True when the recovered stream matches the stored bits exactly. */
    bool exactPayload = false;
};

/** Retrieval through the real clusterer instead of perfect grouping. */
struct ClusteredRetrievalResult
{
    RetrievalResult result;

    /** Clustering accuracy against the pool's true grouping. */
    ClusterQuality quality;

    /** Clusters the clusterer formed (true count: one per strand). */
    size_t clustersFound = 0;
};

/** One Monte-Carlo trial of a channel profile (Scenario Lab unit). */
struct TrialOutcome
{
    RetrievalResult result;

    /**
     * Fraction of the stored bytes recovered wrong (missing trailing
     * bytes count as wrong); 0.0 on exact recovery.
     */
    double byteErrorRate = 0.0;

    /** Reads generated across clusters (after dropout). */
    size_t readsGenerated = 0;

    /** Clusters erased by dropout (zero reads before decode). */
    size_t clustersDropped = 0;

    /** True when the trial decoded through the real clusterer. */
    bool clustered = false;

    /** Clustering accuracy (valid when clustered). */
    ClusterQuality quality;

    /** Clusters formed (valid when clustered). */
    size_t clustersFound = 0;
};

/** Per-epoch outcome of one aging Monte-Carlo trial. */
struct AgingTrialOutcome
{
    /** Decode success after each epoch (aging, optional scrub). */
    std::vector<uint8_t> epochSuccess;

    /** Fraction of stored bytes recovered wrong after the last epoch. */
    double byteErrorRate = 0.0;
    size_t readsLost = 0; //!< Total reads lost to aging.
    size_t repaired = 0;  //!< Clusters rewritten (scrubbing).
};

/** Simulates storage and retrieval of one encoding unit. */
class StorageSimulator
{
  public:
    /**
     * @param cfg    Unit geometry.
     * @param scheme Layout under test.
     * @param model  IDS channel error model.
     * @param seed   Seed for the read pools (vary per repetition).
     */
    StorageSimulator(const StorageConfig &cfg, LayoutScheme scheme,
                     const ErrorModel &model, uint64_t seed);

    /**
     * Simulator over a full channel profile (Scenario Lab path). The
     * pre-generated pools of store() still use only the profile's
     * base IDS model; the stressors (ramp, PCR lineages, dropout)
     * apply to the per-trial read generation of runTrial().
     */
    StorageSimulator(const StorageConfig &cfg, LayoutScheme scheme,
                     const ChannelProfile &profile, uint64_t seed);

    /**
     * Encode the bundle and pre-generate read pools.
     *
     * @param max_coverage Largest coverage any later query will use.
     */
    void store(const FileBundle &bundle, size_t max_coverage);

    /**
     * Encode the bundle without generating read pools — the Monte-
     * Carlo entry point: runTrial() draws fresh reads per trial, so
     * the pool-backed queries (retrieve*, minCoverageForExact) are
     * not available until store() is called.
     */
    void prepare(const FileBundle &bundle);

    /**
     * Export the pre-generated read pools as owning per-cluster read
     * vectors, cluster-major in pool order — the snapshot half of the
     * durable `.dnapool` format (api/pool_file.hh).
     *
     * @throws std::logic_error before store().
     */
    std::vector<std::vector<Strand>> snapshotPool() const;

    /** Pool depth (reads per cluster); 0 before store(). */
    size_t poolCoverage() const;

    /** True once store() (or restore() with pools) ran. */
    bool hasPool() const { return pool_ != nullptr; }

    /**
     * Rebuild simulator state from a durable snapshot: re-encode
     * @p bundle (exactly prepare()) and adopt @p pools as the read
     * pools instead of regenerating them from the channel — the
     * restore half of the durable format. Pool-backed queries then
     * return byte-identical results to the simulator the snapshot
     * was taken from.
     *
     * @throws std::invalid_argument unless @p pools holds one cluster
     *         per encoded strand, each with at most @p max_coverage
     *         reads (fewer is fine: an aged pool restores ragged,
     *         exactly as it decayed).
     */
    void restore(const FileBundle &bundle,
                 const std::vector<std::vector<Strand>> &pools,
                 size_t max_coverage);

    /**
     * Run one Monte-Carlo trial: sample per-cluster read counts from
     * @p coverage, apply the profile's dropout, generate fresh reads
     * through the profile channel (ramp + PCR lineages included), and
     * decode. All randomness derives from @p trial_seed alone, so a
     * trial is reproducible independent of every other trial — the
     * property that lets the Scenario Lab fan trials out over the
     * thread pool with bit-identical aggregate results.
     *
     * @param cluster_params When non-null, reads are regrouped by the
     *        real clusterer (retrieveClustered semantics) instead of
     *        the perfect-clustering assumption.
     */
    TrialOutcome runTrial(const CoverageModel &coverage,
                          uint64_t trial_seed,
                          const ClusterParams *cluster_params
                          = nullptr) const;

    /**
     * Decode using the first @p coverage reads of every cluster.
     *
     * @param forced_erasures Columns to erase artificially (Fig. 13).
     */
    RetrievalResult retrieve(
        size_t coverage,
        const std::vector<size_t> &forced_erasures = {}) const;

    /**
     * Decode with Gamma-distributed per-cluster coverage of the given
     * mean (shape defaults to the tight-but-visible spread the paper
     * describes for real sequencing runs).
     */
    RetrievalResult retrieveGamma(double mean_coverage, double shape,
                                  uint64_t draw_seed) const;

    /**
     * Decode without the perfect-clustering assumption: the pool's
     * reads are flattened into one interleaved stream (round-robin
     * across molecules, the order a sequencer might emit them), run
     * through the clustering engine (StreamingClusterer) with
     * @p params, and the resulting clusters are decoded. Exercises the paper's side-stepped clustering
     * stage end-to-end (section 2.1).
     */
    ClusteredRetrievalResult retrieveClustered(
        size_t coverage, const ClusterParams &params = {}) const;

    /**
     * Smallest coverage in [lo, hi] whose retrieval is exact, or
     * nullopt if none is. Pool prefixes make success monotone in
     * coverage up to consensus noise, so a linear scan is exact.
     */
    std::optional<size_t> minCoverageForExact(
        size_t lo, size_t hi,
        const std::vector<size_t> &forced_erasures = {}) const;

    // ------------------------------------------------- durability loop
    /**
     * Apply @p epochs of the profile's AgingProfile to the stored
     * pool: per epoch, reads are lost and surviving bases substitute
     * (channel/aging.hh). Epoch seeds mix the unit seed with a
     * monotone epoch counter, so age(1);age(1) decays identically to
     * age(2) and the aged pool is bit-identical at any thread count.
     *
     * @return Reads lost across the epochs.
     * @throws std::logic_error before store().
     */
    size_t age(size_t epochs);

    /** Epochs of decay applied to the stored pool so far. */
    size_t agedEpochs() const { return agedEpochs_; }

    /**
     * Measure the stored pool's health with one full-depth probe
     * decode: per-cluster live reads and consensus agreement, per-
     * codeword RS correction split and remaining margin. Read-only.
     *
     * @throws std::logic_error before store().
     */
    HealthReport probeHealth() const;

    /**
     * Scrub the stored pool: probe-decode at full depth, select the
     * clusters @p policy calls low-margin, and — when every codeword
     * decoded, i.e. the recovered data is trustworthy — rewrite each
     * selected cluster with fresh full-depth reads of its repaired
     * strand (re-synthesis through the base channel). When any
     * codeword failed, every column embeds an untrusted symbol, so
     * nothing is rewritten and the report says unrepairable. Scrub
     * generations advance a seed counter, so repeated scrubs draw
     * fresh (but reproducible) synthesis noise.
     *
     * @throws std::logic_error before store(); the re-encoded repair
     *         is cross-checked against the stored unit and a mismatch
     *         throws (internal inconsistency).
     */
    ScrubReport scrub(const ScrubOptions &policy);

    /**
     * One Monte-Carlo aging trial over a trial-local pool (the stored
     * pool is untouched): synthesize a fresh pool of @p coverage
     * reads per cluster, then per epoch age it one step, optionally
     * scrub it with @p policy, and decode — recording per-epoch
     * success. All randomness derives from @p trial_seed, so trials
     * fan out with bit-identical results (the Scenario Lab contract).
     *
     * @throws std::logic_error before prepare()/store().
     */
    AgingTrialOutcome runAgingTrial(size_t coverage,
                                    uint64_t trial_seed, size_t epochs,
                                    bool scrub_each_epoch,
                                    const ScrubOptions &policy) const;

    /** The unit as written (for error accounting in benches). */
    const EncodedUnit &unit() const { return unit_; }

    /** The stored serialized stream (exactness reference). */
    const std::vector<uint8_t> &storedStream() const { return stored_; }

  private:
    /**
     * Fraction of the stored bytes @p raw gets wrong (missing trailing
     * bytes count as wrong); 0.0 on exact recovery.
     */
    double byteErrorRate(const std::vector<uint8_t> &raw) const;

    RetrievalResult decodeBatch(
        const ReadBatch &batch, size_t coverage_label,
        const std::vector<size_t> &forced_erasures) const;

    /**
     * The scrub engine, over any pool of this unit's clusters: the
     * member scrub() runs it on the stored pool, runAgingTrial on its
     * trial-local pools. Per-cluster rewrite seeds are pre-drawn
     * serially for ALL clusters from @p scrub_seed, so which clusters
     * the policy selects can never shift another cluster's noise.
     */
    ScrubReport scrubPool(ReadPool &pool, const ScrubOptions &policy,
                          uint64_t scrub_seed) const;

    HealthReport probePool(const ReadPool &pool) const;

    ClusteredRetrievalResult decodeClusteredBatch(
        const ReadBatch &batch, size_t coverage_label,
        const ClusterParams &params) const;

    StorageConfig cfg_;
    LayoutScheme scheme_;
    IdsChannel channel_;
    ProfileChannel profileChannel_;
    uint64_t seed_;
    UnitEncoder encoder_;
    UnitDecoder decoder_;
    EncodedUnit unit_;
    std::vector<uint8_t> stored_;
    std::unique_ptr<ReadPool> pool_;
    size_t agedEpochs_ = 0;      //!< Epochs applied to pool_.
    size_t scrubGeneration_ = 0; //!< Scrubs run against pool_.
};

} // namespace dnastore

#endif // DNASTORE_PIPELINE_SIMULATOR_HH
