/**
 * @file
 * Scenario Lab: declarative reliability scenarios.
 *
 * A Scenario composes a channel profile (base IDS model + stressors,
 * channel/stressors.hh), a coverage model, a unit geometry, and a
 * payload into one named, reproducible workload, together with the
 * decode-success threshold the statistical regression suite enforces
 * for it. The named registry (allScenarios) is the grid the
 * `dnastore sweep` subcommand and tests/lab/ run over: every future
 * perf PR is checked against decode *reliability* on these hostile
 * profiles, not just bit-identity on the nominal channel.
 *
 * Thresholds are chosen from calibration runs (1000 trials at seed
 * 20220618) with a safety margin below the observed success rate; see
 * the README's Scenario Lab section for the method and the measured
 * rates behind each bound.
 */

#ifndef DNASTORE_LAB_SCENARIO_HH
#define DNASTORE_LAB_SCENARIO_HH

#include <string>
#include <vector>

#include "channel/coverage.hh"
#include "channel/stressors.hh"
#include "cluster/clusterer.hh"
#include "pipeline/bundle.hh"
#include "pipeline/config.hh"

namespace dnastore {

/** One named reliability workload. */
struct Scenario
{
    std::string name;
    std::string description;

    /** Unit geometry (lab scenarios use tinyTest-derived geometry). */
    StorageConfig config = StorageConfig::tinyTest();
    LayoutScheme scheme = LayoutScheme::Gini;

    /**
     * Synthetic payload stored per trial run (deterministic). The
     * default nearly fills the tinyTest unit (capacity 2496 bytes
     * including the directory): a mostly-empty unit would pad with
     * zero columns whose identical strands are true near-duplicates,
     * which the clustered scenarios would then legitimately merge
     * (see README), skewing precision for reasons unrelated to the
     * channel.
     */
    size_t payloadBytes = 2432;
    uint64_t payloadSeed = 1;

    /**
     * When set, makePayload() returns this bundle instead of the
     * synthetic payload — how `sweep --from-pool` runs the hostile
     * grid over a durable pool file's real objects (the loader also
     * replaces config/scheme with the file's, so the override always
     * fits its unit).
     */
    FileBundle payloadOverride;
    bool hasPayloadOverride = false;

    /** Channel profile the reads suffer. */
    ChannelProfile channel;

    /** Mean reads per cluster. */
    double coverageMean = 8.0;

    /**
     * Gamma shape of the coverage distribution; 0 = fixed coverage of
     * exactly coverageMean reads per cluster.
     */
    double coverageShape = 0.0;

    /** Decode through the real clusterer instead of perfect grouping. */
    bool clustered = false;
    ClusterParams clusterParams;

    /**
     * When > 0, trials run the closed durability loop instead of one
     * decode: per epoch the trial pool ages by channel.aging, is
     * optionally scrubbed, and is decoded — the sweep reports the
     * success-rate-vs-epoch curve, and the scenario's threshold
     * applies to the FINAL epoch. Needs fixed coverage (coverageShape
     * = 0) and no clusterer.
     */
    size_t agingEpochs = 0;

    /** Scrub after each epoch's decay (the repair half of the loop). */
    bool scrubEachEpoch = false;

    /** Scrub policy: repair clusters below this many live reads. */
    size_t scrubMinReads = 0;

    /**
     * Minimum decode-success rate the regression suite enforces for
     * this scenario (fraction of trials recovering the payload
     * byte-exactly).
     */
    double minSuccessRate = 0.99;

    /** Instantiate the coverage model. */
    CoverageModel makeCoverage() const;

    /** Build the deterministic payload bundle. */
    FileBundle makePayload() const;
};

/** The named scenario grid, in canonical order. */
const std::vector<Scenario> &allScenarios();

/** Look up a scenario by name; nullptr if unknown. */
const Scenario *findScenario(const std::string &name);

} // namespace dnastore

#endif // DNASTORE_LAB_SCENARIO_HH
