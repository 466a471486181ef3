/**
 * @file
 * Builder-validated configuration for the public `dnastore::api`
 * surface.
 *
 * Three fluent builders — StoreOptions (unit geometry + execution
 * knobs), ChannelOptions (error model, stressors, coverage, seeds),
 * and ClusterOptions (read-clustering knobs) — run the one check()
 * each parameter group has on the type that owns it (StorageConfig,
 * ClusterParams, ChannelProfile, CoverageModel::checkFixed and
 * checkGamma), adding only what no such type owns. The CLI's flag
 * checks delegate here, so the CLI, the API and the engines reject
 * identical inputs with identical messages: InvalidArgument with the
 * rule's text, which names the parameter and quotes no value.
 *
 * Builders never throw; setters record values and validate() reports
 * the first broken constraint. A Store refuses to open on an invalid
 * builder, so everything behind the façade can assume validated
 * configuration.
 */

#ifndef DNASTORE_API_OPTIONS_HH
#define DNASTORE_API_OPTIONS_HH

#include <cstdint>
#include <string>

#include "api/status.hh"
#include "channel/coverage.hh"
#include "channel/stressors.hh"
#include "cluster/clusterer.hh"
#include "pipeline/config.hh"

namespace dnastore {
namespace api {

/**
 * Unit geometry and execution knobs of a Store.
 *
 * Defaults to the tinyTest geometry with the Gini layout. The
 * geometry presets mirror StorageConfig's; autoGeometry() instead
 * picks the smallest preset that fits the stored payload at
 * synthesis time (the CLI's behavior).
 */
class StoreOptions
{
  public:
    StoreOptions() : cfg_(StorageConfig::tinyTest()) {}

    /** Geometry presets. */
    static StoreOptions tiny();
    static StoreOptions bench();
    static StoreOptions paper();

    /** Size the unit to the payload at synthesis time (tiny/bench). */
    StoreOptions &autoGeometry(bool on);

    /** Adopt a complete geometry (e.g. a Scenario's config). */
    StoreOptions &config(const StorageConfig &cfg);

    StoreOptions &symbolBits(unsigned bits);
    StoreOptions &rows(size_t rows);
    StoreOptions &paritySymbols(size_t parity);
    StoreOptions &primerLen(size_t bases);
    StoreOptions &primerKey(uint64_t key);
    StoreOptions &layout(LayoutScheme scheme);

    /** Worker threads for decode/cluster loops (1 serial, 0 = all). */
    StoreOptions &threads(size_t n);

    /** Store read pools 2-bit packed (quarter the memory). */
    StoreOptions &packedReadPools(bool on);

    /** Seed of the unit's read pools / profile channel. */
    StoreOptions &unitSeed(uint64_t seed);

    /** First broken constraint as InvalidArgument; Ok when valid. */
    Status validate() const;

    // Resolved accessors.
    const StorageConfig &config() const { return cfg_; }
    LayoutScheme layout() const { return scheme_; }
    bool autoGeometry() const { return autoGeometry_; }
    uint64_t unitSeed() const { return unitSeed_; }

  private:
    StorageConfig cfg_;
    LayoutScheme scheme_ = LayoutScheme::Gini;
    bool autoGeometry_ = false;
    uint64_t unitSeed_ = 20220618;
};

/**
 * Read-clustering knobs (the API face of ClusterParams).
 */
class ClusterOptions
{
  public:
    ClusterOptions() = default;

    /** Adopt existing ClusterParams (e.g. a Scenario's). */
    static ClusterOptions fromParams(const ClusterParams &params);

    /** q-gram length of the signature index, in [1, 31]. */
    ClusterOptions &qgram(size_t q);

    /** Max edit distance to join a cluster, fraction of read length. */
    ClusterOptions &maxDistanceFrac(double frac);

    /** Worker threads for the sharded mode (1 serial, 0 = all). */
    ClusterOptions &threads(size_t n);

    /**
     * Memory budget for read buffering, in MiB. 0 (default) never
     * spills; any other value spills packed reads past the budget to
     * checksummed segments under spillDir(). The clustering is
     * bit-identical either way. validate() rejects a budget whose
     * byte count does not fit size_t.
     */
    ClusterOptions &memoryBudgetMb(size_t mb);

    /** Spill directory for streaming runs ("" = system temp dir). */
    ClusterOptions &spillDir(const std::string &dir);

    /** First broken constraint as InvalidArgument; Ok when valid. */
    Status validate() const;

    const ClusterParams &params() const { return params_; }

  private:
    ClusterParams params_;
    bool budgetOverflow_ = false; //!< memoryBudgetMb() * 2^20 wrapped.
};

/**
 * Channel shape, coverage distribution, seeds, and (optionally) the
 * real clusterer a Store retrieves through.
 *
 * The error model is either a uniform-split total rate (errorRate),
 * explicit per-type rates (rates) — the two are mutually exclusive,
 * as on the CLI — or a full ChannelProfile with stressors (profile).
 */
class ChannelOptions
{
  public:
    /**
     * Defaults: 6% uniform-split error, fixed coverage 10. profile_
     * is only consulted when profile() was called — channelProfile()
     * resolves the flat model from errorRate()/rates() otherwise.
     */
    ChannelOptions() = default;

    /** Uniform split: p/3 insertion, p/3 deletion, p/3 substitution. */
    ChannelOptions &errorRate(double p);

    /** Explicit per-type rates (excludes errorRate). */
    ChannelOptions &rates(double ins, double del, double sub);

    /** Full channel profile: base model plus stressors (Scenario Lab). */
    ChannelOptions &profile(const ChannelProfile &profile);

    /**
     * Aging/decay model driving Store::age(): per-epoch strand-loss
     * and per-base substitution rates, both in [0, 1]. Combinable
     * with any channel shape; when a full profile() is also set, this
     * overrides the profile's own aging member.
     */
    ChannelOptions &aging(const AgingProfile &aging);

    /** Fixed reads per cluster (reverts any earlier gammaCoverage). */
    ChannelOptions &coverage(size_t readsPerCluster);

    /**
     * Gamma-distributed coverage. Combinable with cluster() only on
     * the per-trial path (TrialJob); the pool-backed retrievals
     * reject the pairing.
     */
    ChannelOptions &gammaCoverage(double mean, double shape);

    /** Adopt an existing CoverageModel (fixed or gamma). */
    ChannelOptions &coverage(const CoverageModel &model);

    /** Retrieve through the real clusterer instead of perfect groups. */
    ChannelOptions &cluster(const ClusterOptions &options);

    /** Seed for gamma coverage draws at retrieval time. */
    ChannelOptions &drawSeed(uint64_t seed);

    /**
     * First broken constraint as InvalidArgument; Ok when valid. Past
     * the builder's own knobs, runs channelProfile().check(),
     * CoverageModel::checkGamma and ClusterOptions::validate().
     */
    Status validate() const;

    // Resolved accessors (meaningful once validate().ok()).
    ChannelProfile channelProfile() const;
    CoverageModel coverageModel() const;
    size_t fixedCoverage() const { return coverage_; }
    bool hasGamma() const { return gammaMean_ > 0.0; }
    double gammaMean() const { return gammaMean_; }
    double gammaShape() const { return gammaShape_; }
    bool hasCluster() const { return clusterSet_; }
    bool hasAging() const
    {
        return channelProfile().aging.enabled();
    }
    const ClusterParams &clusterParams() const;
    uint64_t drawSeed() const { return drawSeed_; }

    /**
     * Largest coverage any retrieval will draw: the fixed coverage,
     * or — under gamma coverage — three times the mean plus slack so
     * the pool cap stays out of the distribution's realistic range.
     */
    size_t maxCoverage() const;

  private:
    ChannelProfile profile_;
    AgingProfile aging_;
    bool agingSet_ = false;
    double errorRate_ = 0.06;
    bool errorRateSet_ = false;
    ErrorModel rates_;
    bool ratesSet_ = false;
    bool profileSet_ = false;
    size_t coverage_ = 10;
    double gammaMean_ = 0.0;
    double gammaShape_ = 0.0;
    ClusterOptions cluster_;
    bool clusterSet_ = false;
    uint64_t drawSeed_ = 20220618;
};


/**
 * printf-style helper for status messages ("cluster-memory-mb must be
 * at most %zu"), shared by the api and daemon sources.
 */
std::string formatMessage(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace api
} // namespace dnastore

#endif // DNASTORE_API_OPTIONS_HH
