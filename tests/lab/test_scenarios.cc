/**
 * Statistical regression suite over the Scenario Lab grid: every
 * named scenario must hold its documented minimum decode-success
 * rate. This is the reliability counterpart of the bit-identity
 * determinism suites — a perf PR that nudges consensus or ECC
 * behavior in a way that only shows up under hostile channels fails
 * here, not in production.
 *
 * Trial counts come from sweepTrials() (DNASTORE_SWEEP_TRIALS
 * overrides; CI's sanitizer job runs a reduced count). Seeds are
 * fixed, so for a given trial count the outcome is fully
 * deterministic — thresholds are calibrated with margin (see
 * README's Scenario Lab section) and cannot flake.
 */

#include <gtest/gtest.h>

#include <set>

#include "lab/report.hh"
#include "lab/scenario.hh"
#include "lab/sweep.hh"
#include "sweep_trials.hh"

namespace dnastore {
namespace {

SweepOptions
testOptions()
{
    SweepOptions opt;
    opt.trials = size_t(sweepTrials(40));
    opt.threads = 0; // all hardware threads; results are identical
    return opt;
}

TEST(ScenarioRegistry, NamesAreUniqueAndFindable)
{
    std::set<std::string> names;
    for (const auto &s : allScenarios()) {
        EXPECT_TRUE(names.insert(s.name).second)
            << "duplicate scenario " << s.name;
        const Scenario *found = findScenario(s.name);
        ASSERT_NE(found, nullptr);
        EXPECT_EQ(found->name, s.name);
        EXPECT_FALSE(s.description.empty());
        // aging-decay's bound is legitimately 0: it documents the
        // open-loop collapse the scrub-loop scenario is measured
        // against (the real assertion lives in DurabilityLoop below).
        EXPECT_GE(s.minSuccessRate, 0.0);
        EXPECT_LE(s.minSuccessRate, 1.0);
        EXPECT_EQ(s.channel.check(), nullptr);
    }
    EXPECT_EQ(findScenario("no-such-scenario"), nullptr);
    EXPECT_GE(names.size(), 6u);
}

TEST(ScenarioRegistry, GridCoversTheStressorSpace)
{
    // The grid must keep exercising every stressor class: a ramped
    // profile, a PCR profile, a dropout profile, a gamma-coverage
    // scenario, and a clustered decode.
    bool ramp = false, pcr = false, dropout = false, gamma = false,
         clustered = false;
    for (const auto &s : allScenarios()) {
        ramp = ramp || s.channel.ramp.enabled();
        pcr = pcr || s.channel.pcr.enabled();
        dropout = dropout || s.channel.dropout.enabled();
        gamma = gamma || s.coverageShape > 0.0;
        clustered = clustered || s.clustered;
    }
    EXPECT_TRUE(ramp);
    EXPECT_TRUE(pcr);
    EXPECT_TRUE(dropout);
    EXPECT_TRUE(gamma);
    EXPECT_TRUE(clustered);
}

class ScenarioThreshold : public ::testing::TestWithParam<size_t>
{
};

TEST_P(ScenarioThreshold, HoldsMinimumSuccessRate)
{
    const Scenario &scenario = allScenarios()[GetParam()];
    SweepRunner runner(testOptions());
    ScenarioReport report = runner.run(scenario);

    EXPECT_EQ(report.trials, runner.options().trials);
    EXPECT_EQ(report.perTrial.size(), report.trials);
    // The pass rule is the count-quantized threshold (see
    // ScenarioReport::passed): at reduced trial counts the rate
    // itself may sit a fraction of a trial below the bound.
    EXPECT_TRUE(report.passed)
        << scenario.name << ": " << report.successes << "/"
        << report.trials << " trials exact, need rate >= "
        << report.minSuccessRate;

    // Internal consistency: successes match the per-trial records,
    // and exact trials carry zero byte errors.
    size_t successes = 0;
    for (const auto &rec : report.perTrial) {
        if (rec.success) {
            ++successes;
            EXPECT_DOUBLE_EQ(rec.byteErrorRate, 0.0);
        } else {
            EXPECT_GT(rec.byteErrorRate, 0.0);
        }
    }
    EXPECT_EQ(successes, report.successes);

    if (scenario.clustered) {
        // The few residual zero-padding columns are true
        // near-duplicates the clusterer merges by design (README), so
        // precision sits a notch below perfect even on clean runs.
        EXPECT_GT(report.meanPrecision, 0.8);
        EXPECT_GT(report.meanRecall, 0.9);
    }
}

// The acceptance assertion of the durability loop: the scrub-loop
// scenario (repair after every epoch) must end strictly healthier
// than the open-loop aging-decay baseline on the identical decay
// channel. Both runs are fully deterministic for a given trial
// count, so "strictly higher" cannot flake.
TEST(DurabilityLoop, ScrubStrictlyBeatsOpenLoopDecay)
{
    const Scenario *open_loop = findScenario("aging-decay");
    const Scenario *closed_loop = findScenario("scrub-loop");
    ASSERT_NE(open_loop, nullptr);
    ASSERT_NE(closed_loop, nullptr);
    ASSERT_EQ(open_loop->agingEpochs, closed_loop->agingEpochs);
    ASSERT_FALSE(open_loop->scrubEachEpoch);
    ASSERT_TRUE(closed_loop->scrubEachEpoch);

    SweepRunner runner(testOptions());
    ScenarioReport decayed = runner.run(*open_loop);
    ScenarioReport scrubbed = runner.run(*closed_loop);

    ASSERT_EQ(decayed.epochSuccessRate.size(),
              open_loop->agingEpochs);
    ASSERT_EQ(scrubbed.epochSuccessRate.size(),
              closed_loop->agingEpochs);

    // Final-epoch success: the open loop collapses, the closed loop
    // holds. The gap is calibrated wide (0 vs 1 at full trials), so
    // a strict inequality is safe at any reduced trial count.
    EXPECT_GT(scrubbed.successRate, decayed.successRate);
    EXPECT_GT(scrubbed.epochSuccessRate.back(),
              decayed.epochSuccessRate.back());

    // The repair work is real: the closed loop rewrites clusters
    // every trial, the open loop never does.
    EXPECT_GT(scrubbed.meanScrubRepaired, 0.0);
    EXPECT_DOUBLE_EQ(decayed.meanScrubRepaired, 0.0);
    // Both lose reads to the decay channel itself.
    EXPECT_GT(decayed.meanReadsLost, 0.0);
    EXPECT_GT(scrubbed.meanReadsLost, 0.0);
}

std::string
scenarioName(const ::testing::TestParamInfo<size_t> &info)
{
    std::string name = allScenarios()[info.param].name;
    for (auto &c : name) {
        if (c == '-')
            c = '_';
    }
    return name;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ScenarioThreshold,
    ::testing::Range(size_t(0), allScenarios().size()), scenarioName);

} // namespace
} // namespace dnastore
