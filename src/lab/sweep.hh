/**
 * @file
 * Deterministic Monte-Carlo sweep runner.
 *
 * Runs N independent trials of a Scenario and aggregates them into a
 * ScenarioReport. Trials fan out over the shared work-stealing
 * ThreadPool (util/thread_pool.hh): each trial derives its entire
 * randomness from a per-trial seed drawn serially up front, writes
 * into its own result slot, and aggregation walks the slots in trial
 * order afterwards — so the report (and its JSON/CSV serialization,
 * lab/report.hh) is bit-identical for every thread count and steal
 * schedule. Wall time is the one non-deterministic field; the report
 * writers exclude it unless explicitly asked.
 */

#ifndef DNASTORE_LAB_SWEEP_HH
#define DNASTORE_LAB_SWEEP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "api/store.hh"
#include "lab/scenario.hh"

namespace dnastore {

/** Sweep-wide knobs. */
struct SweepOptions
{
    /** Monte-Carlo trials per scenario. */
    size_t trials = 100;

    /** Worker threads (1 = serial, 0 = all hardware threads). */
    size_t threads = 1;

    /** Base seed; per-trial seeds derive from it and the scenario. */
    uint64_t seed = 20220618;
};

/**
 * Deterministic per-trial record (one Monte-Carlo sample): the
 * TrialJob's own result, kept as the sweep returns it.
 */
using TrialRecord = api::TrialResult;

/** Aggregated result of sweeping one scenario. */
struct ScenarioReport
{
    std::string scenario;
    std::string description;
    size_t trials = 0;
    size_t successes = 0;
    double successRate = 0.0;
    double meanByteErrorRate = 0.0;
    double maxByteErrorRate = 0.0;
    double meanErasedColumns = 0.0;
    double meanFailedCodewords = 0.0;
    double meanCorrectedErrors = 0.0;
    double meanReads = 0.0;
    double meanClustersDropped = 0.0;
    bool clustered = false;
    double meanPrecision = 0.0; //!< Clustered scenarios only.
    double meanRecall = 0.0;    //!< Clustered scenarios only.

    /**
     * Aging scenarios only: epochs per trial, the success rate after
     * each epoch (the decay — or closed-loop — curve), and the mean
     * per-trial repair work. The scalar success fields describe the
     * final epoch.
     */
    size_t agingEpochs = 0;
    std::vector<double> epochSuccessRate;
    double meanReadsLost = 0.0;
    double meanScrubRepaired = 0.0;

    /** Threshold echoed from the scenario (regression bound). */
    double minSuccessRate = 0.0;

    /**
     * True when successes >= floor(minSuccessRate * trials). The
     * bound is quantized to whole trials so reduced-trial runs
     * (DNASTORE_SWEEP_TRIALS) don't fail a healthy scenario on
     * rounding alone.
     */
    bool passed = false;

    /**
     * Measured wall time of the whole sweep. Non-deterministic by
     * nature: report serializers omit it unless asked.
     */
    double wallMs = 0.0;

    /** Per-trial records, trial order (deterministic). */
    std::vector<api::TrialResult> perTrial;
};

/** Monte-Carlo runner over the scenario grid. */
class SweepRunner
{
  public:
    explicit SweepRunner(const SweepOptions &opt) : opt_(opt) {}

    /** Sweep one scenario. */
    ScenarioReport run(const Scenario &scenario) const;

    /** Sweep several scenarios, in the given order. */
    std::vector<ScenarioReport> runAll(
        const std::vector<Scenario> &scenarios) const;

    const SweepOptions &options() const { return opt_; }

  private:
    SweepOptions opt_;
};

} // namespace dnastore

#endif // DNASTORE_LAB_SWEEP_HH
