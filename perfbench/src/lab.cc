/**
 * lab-sweep: SweepRunner::run on the nanopore-hostile scenario, two
 * threads, seed = workload seed + op index. Every report is checked
 * for its trial count and the scenario's success bound.
 *
 * 384 trials per op, not 64: the scenario succeeds ~83% per trial
 * against a 75% bound, so a 64-trial op misses the bound by chance
 * ~3% of the time; at 384 trials that is ~2e-5.
 */

#include <algorithm>
#include <cstdint>

#include "api/api.hh"
#include "lab/scenario.hh"
#include "lab/sweep.hh"
#include "pipeline/simulator.hh"
#include "replay.hh"
#include "util/rng.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using namespace dnastore;

const char *const kScenario = "nanopore-hostile";
constexpr size_t kTrials = 384;
constexpr size_t kSmokeTrials = 16;
constexpr size_t kThreads = 2;
constexpr size_t kSetupReps = 3;
constexpr size_t kWarmupTrials = 16;

/** SweepRunner's per-scenario seed mix (FNV-1a of the name). */
uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : s) {
        h ^= uint8_t(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
checkReport(const ScenarioReport &r, size_t trials)
{
    if (r.trials != trials || r.perTrial.size() != trials)
        return "report holds " + std::to_string(r.perTrial.size()) +
            " trials, expected " + std::to_string(trials);
    if (!r.passed)
        return "missed the scenario bound: " +
            std::to_string(r.successes) + "/" + std::to_string(trials) +
            " successes, bound " + std::to_string(r.minSuccessRate);
    return "";
}

/** runTrial, replayed through the layers (simulator.cc's runTrial). */
DecodedUnit
replayTrial(const UnitCodec &codec, const std::vector<Strand> &strands,
            const ProfileChannel &channel, const CoverageModel &coverage,
            uint64_t sim_seed, uint64_t trial_seed, Tracer &tracer)
{
    Rng rng(sim_seed ^ (0x9e3779b97f4a7c15ULL * (trial_seed + 1)));
    const size_t n_clusters = strands.size();
    std::vector<size_t> counts(n_clusters);
    ReadBatch batch;
    size_t generated = 0;
    {
        Scope s(tracer, "channel.generate");
        for (auto &count : counts)
            count = coverage.sample(rng);
        applyDropout(channel.profile().dropout, rng, counts);
        for (size_t c = 0; c < n_clusters; ++c) {
            if (counts[c] == 0)
                continue;
            channel.generateCluster(strands[c], counts[c], rng,
                                    batch.scratch);
            generated += counts[c];
        }
    }
    {
        Scope s(tracer, "pipeline.assemble");
        batch.offsets.reserve(n_clusters + 1);
        batch.offsets.push_back(0);
        batch.views.reserve(generated);
        size_t next = 0;
        for (size_t c = 0; c < n_clusters; ++c) {
            for (size_t r = 0; r < counts[c]; ++r)
                batch.views.push_back(batch.scratch.view(next++));
            batch.offsets.push_back(batch.views.size());
        }
    }
    if (tracer.enabled()) {
        size_t bases = 0;
        for (const StrandView &v : batch.views)
            bases += v.size();
        tracer.count("channel.reads", double(generated));
        tracer.count("channel.bases", double(bases));
    }
    return replayDecode(codec, batch, tracer);
}

bool
exactPayload(const DecodedUnit &d, const std::vector<uint8_t> &stored)
{
    return d.rawStream.size() >= stored.size() &&
        std::equal(stored.begin(), stored.end(), d.rawStream.begin());
}

} // namespace

Report
runLab(const RunOptions &opt)
{
    Report report;
    report.workload = "lab-sweep";
    report.seed = opt.seed;
    report.traced = opt.trace;

    const Scenario *scenario = findScenario(kScenario);
    if (scenario == nullptr) {
        report.fail(0, std::string("no scenario named ") + kScenario);
        return report;
    }
    const size_t trials = opt.smoke ? kSmokeTrials : kTrials;

    // Set-up: small warm-up sweeps (thread pool start, scenario
    // payload, code and caches), repeated; the median is setup_s.
    Samples setup;
    const size_t setup_reps = opt.smoke ? 1 : kSetupReps;
    for (size_t r = 0; r < setup_reps; ++r) {
        const Clock::time_point t0 = Clock::now();
        SweepOptions warm;
        warm.trials = kWarmupTrials;
        warm.threads = kThreads;
        warm.seed = mixSeed(opt.seed, 1000 + r);
        SweepRunner(warm).run(*scenario);
        setup.add(secondsSince(t0));
    }

    const size_t max_ops = opt.smoke ? 1 : SIZE_MAX;
    auto sweepOp = [&](size_t op, double *ms) {
        SweepOptions so;
        so.trials = trials;
        so.threads = kThreads;
        so.seed = opt.seed + op;
        const Clock::time_point t0 = Clock::now();
        ScenarioReport r = SweepRunner(so).run(*scenario);
        *ms = msBetween(t0, Clock::now());
        return r;
    };

    if (!opt.trace) {
        Samples op_ms, op_cost; // cost: op time over the host reference
        double cost_sum = 0.0, last_ms = 0.0;
        HostReference ref(kThreads);
        const Clock::time_point start = Clock::now();
        for (size_t op = 0; op < max_ops && (op == 0 ||
                                             secondsSince(start) <
                                                 opt.seconds);
             ++op) {
            double ms = 0.0;
            ref.before(last_ms);
            const ScenarioReport r = sweepOp(op, &ms);
            ++report.attempted;
            const std::string why = checkReport(r, trials);
            if (!why.empty()) {
                report.fail(op, why);
                continue;
            }
            op_ms.add(ms);
            const double cost = ms / ref.after(ms);
            last_ms = ms;
            op_cost.add(cost);
            cost_sum += cost;
        }
        const double total_s = op_ms.sum() / 1000.0;
        const double trials_per_s =
            total_s > 0 ? double(op_ms.size() * trials) / total_s : 0.0;
        report.metric("setup_s", setup.median(), "s", setup.size());
        report.metric("trials_per_s", trials_per_s, "1/s", op_ms.size());
        report.metric("op_ms_p50", op_ms.median(), "ms", op_ms.size());
        report.metric("throughput_per_s", trials_per_s, "1/s",
                      op_ms.size());
        report.metric("op_p50_ref", op_cost.median(), "ref", op_cost.size());
        report.metric("throughput_per_ref",
                      cost_sum > 0 ? double(op_cost.size() * trials) / cost_sum
                                   : 0.0,
                      "1/ref", op_cost.size());
        report.metric("peak_rss_MiB", peakRssMiB(), "MiB");
        report.metric("fail_rate",
                      double(report.failures.size()) /
                          double(std::max<size_t>(1, report.attempted)),
                      "ratio", report.attempted);
        return report;
    }

    // Traced run: per op, the threaded sweep (reference and pool wall
    // time), then every trial serially through StorageSimulator::runTrial
    // (lab.trial_ms) and through the replay, off and on.
    const api::ChannelOptions chan = api::ChannelOptions()
                                         .profile(scenario->channel)
                                         .coverage(scenario->makeCoverage());
    const ChannelProfile profile = chan.channelProfile();
    const CoverageModel coverage = chan.coverageModel();
    const ProfileChannel channel(profile);
    const UnitCodec codec(scenario->config, scenario->scheme);
    const FileBundle payload = scenario->makePayload();

    Tracer off(false), on(true);
    Samples replay_off_ms, replay_on_ms;
    double trial_ms_sum = 0.0, efficiency_sum = 0.0;
    size_t sweeps = 0, trials_done = 0;
    const Clock::time_point start = Clock::now();
    for (size_t op = 0;
         op < max_ops && (op == 0 || secondsSince(start) < opt.seconds);
         ++op) {
        double sweep_ms = 0.0;
        const ScenarioReport r = sweepOp(op, &sweep_ms);
        ++report.attempted;
        std::string why = checkReport(r, trials);

        const uint64_t sim_seed = (opt.seed + op) ^ fnv1a(scenario->name);
        StorageSimulator sim(scenario->config, scenario->scheme, profile,
                             sim_seed);
        sim.prepare(payload);
        Rng seeds(sim_seed);
        double serial_ms = 0.0;
        for (size_t t = 0; t < trials && why.empty(); ++t) {
            const uint64_t trial_seed = seeds.next();
            const Clock::time_point t0 = Clock::now();
            const TrialOutcome lib = sim.runTrial(coverage, trial_seed);
            const Clock::time_point t1 = Clock::now();
            replayTrial(codec, sim.unit().strands, channel, coverage,
                        sim_seed, trial_seed, off);
            const Clock::time_point t2 = Clock::now();
            on.setOp(trials_done);
            DecodedUnit traced;
            {
                Scope root(on, "op.trial");
                traced = replayTrial(codec, sim.unit().strands, channel,
                                     coverage, sim_seed, trial_seed, on);
            }
            const Clock::time_point t3 = Clock::now();
            countDecode(traced, on);

            const TrialRecord &rec = r.perTrial[t];
            why = compareDecoded(traced, lib.result.decoded);
            if (why.empty() &&
                (exactPayload(traced, sim.storedStream()) != rec.success ||
                 traced.stats.erasedColumns != rec.erasedColumns ||
                 traced.stats.failedCodewords != rec.failedCodewords ||
                 traced.stats.totalCorrected() != rec.correctedErrors ||
                 lib.readsGenerated != rec.readsGenerated))
                why = "differs from the sweep report's record";
            if (!why.empty())
                why = "trial " + std::to_string(t) + " replay: " + why;
            serial_ms += msBetween(t0, t1);
            replay_off_ms.add(msBetween(t1, t2));
            replay_on_ms.add(msBetween(t2, t3));
            ++trials_done;
        }
        if (!why.empty()) {
            report.fail(op, why);
            continue;
        }
        trial_ms_sum += serial_ms;
        efficiency_sum += serial_ms / (double(kThreads) * sweep_ms);
        ++sweeps;
    }
    std::map<std::string, double> direct;
    if (sweeps > 0 && trials_done > 0) {
        direct["lab.trial_ms"] = trial_ms_sum / double(trials_done);
        direct["util.pool.efficiency"] = efficiency_sum / double(sweeps);
        direct["trace.overhead_share"] =
            replay_on_ms.median() / replay_off_ms.median() - 1.0;
    }
    emitLayerMetrics(report, on, double(trials_done), direct);
    on.write(opt.scratch + "/spans-" + report.workload + ".csv");
    return report;
}

} // namespace perfbench
