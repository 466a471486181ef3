#include "lab/sweep.hh"

#include <chrono>
#include <cmath>
#include <stdexcept>

#include "api/api.hh"

namespace dnastore {

namespace {

/** FNV-1a over the scenario name: stable across platforms (unlike
 *  std::hash), so per-scenario seed streams never depend on the
 *  standard library in use. */
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

} // namespace

ScenarioReport
SweepRunner::run(const Scenario &scenario) const
{
    const auto t0 = std::chrono::steady_clock::now();

    // The sweep drives trials through the public façade: the Store
    // owns the simulator (profile channel, per-trial RNG streams) and
    // the TrialJob fans the batch over the work-stealing pool with
    // the same slot-per-trial determinism this runner always had.
    api::StoreOptions store_opt;
    store_opt.config(scenario.config)
        .layout(scenario.scheme)
        .unitSeed(opt_.seed ^ fnv1a(scenario.name));
    api::ChannelOptions chan_opt;
    chan_opt.profile(scenario.channel);
    // The scenario's own coverage helper keeps the fixed/gamma
    // selection and rounding in one place.
    chan_opt.coverage(scenario.makeCoverage());
    if (scenario.clustered)
        chan_opt.cluster(
            api::ClusterOptions::fromParams(scenario.clusterParams));

    api::Result<api::Store> store =
        api::Store::open(store_opt, chan_opt);
    if (!store.ok())
        // Scenarios are internal, pre-validated workloads; a rejected
        // one is a programming error in the grid, not a user input.
        throw std::invalid_argument("SweepRunner: " +
                                    store.status().toString());
    const FileBundle payload = scenario.makePayload();
    for (const auto &file : payload.files()) {
        api::Status status = store->put(file.name, file.data);
        if (!status.ok())
            throw std::invalid_argument("SweepRunner: " +
                                        status.toString());
    }

    // Per-trial seeds are drawn serially from one stream before the
    // fan-out, exactly like ReadPool's per-cluster seeds: the trial
    // schedule can never leak into the results.
    Rng seed_stream(opt_.seed ^ fnv1a(scenario.name));
    api::TrialJob job;
    job.trialSeeds.resize(opt_.trials);
    for (auto &s : job.trialSeeds)
        s = seed_stream.next();
    job.threads = opt_.threads;
    job.useClusterer = scenario.clustered;
    job.agingEpochs = scenario.agingEpochs;
    job.scrubEachEpoch = scenario.scrubEachEpoch;
    job.scrub.minReads = scenario.scrubMinReads;

    api::Result<api::TrialSeries> series =
        store->submit(job).get();
    if (!series.ok())
        throw std::runtime_error("SweepRunner: " +
                                 series.status().toString());

    // Serial aggregation in trial order: identical doubles for every
    // thread count.
    ScenarioReport report;
    report.scenario = scenario.name;
    report.description = scenario.description;
    report.trials = opt_.trials;
    report.clustered = scenario.clustered;
    report.minSuccessRate = scenario.minSuccessRate;
    report.agingEpochs = scenario.agingEpochs;
    report.perTrial = std::move(series->trials);
    if (scenario.agingEpochs > 0)
        report.epochSuccessRate.assign(scenario.agingEpochs, 0.0);
    for (const auto &rec : report.perTrial) {
        report.successes += rec.success ? 1 : 0;
        for (size_t e = 0;
             e < rec.epochSuccess.size() &&
             e < report.epochSuccessRate.size();
             ++e)
            report.epochSuccessRate[e] +=
                rec.epochSuccess[e] ? 1.0 : 0.0;
        report.meanReadsLost += double(rec.readsLost);
        report.meanScrubRepaired += double(rec.scrubRepaired);
        report.meanByteErrorRate += rec.byteErrorRate;
        if (rec.byteErrorRate > report.maxByteErrorRate)
            report.maxByteErrorRate = rec.byteErrorRate;
        report.meanErasedColumns += double(rec.erasedColumns);
        report.meanFailedCodewords += double(rec.failedCodewords);
        report.meanCorrectedErrors += double(rec.correctedErrors);
        report.meanReads += double(rec.readsGenerated);
        report.meanClustersDropped += double(rec.clustersDropped);
        report.meanPrecision += rec.precision;
        report.meanRecall += rec.recall;
    }
    if (opt_.trials > 0) {
        const double n = double(opt_.trials);
        report.successRate = double(report.successes) / n;
        report.meanByteErrorRate /= n;
        report.meanErasedColumns /= n;
        report.meanFailedCodewords /= n;
        report.meanCorrectedErrors /= n;
        report.meanReads /= n;
        report.meanClustersDropped /= n;
        report.meanPrecision /= n;
        report.meanRecall /= n;
        for (double &rate : report.epochSuccessRate)
            rate /= n;
        report.meanReadsLost /= n;
        report.meanScrubRepaired /= n;
    }
    // Quantize the bound to whole trials (floor): at reduced trial
    // counts a healthy scenario must not fail just because the
    // threshold falls between two representable success rates —
    // e.g. a 0.80 bound at 8 trials allows 6/8, not only 7/8.
    report.passed = double(report.successes) >=
        std::floor(report.minSuccessRate * double(opt_.trials));

    const auto t1 = std::chrono::steady_clock::now();
    report.wallMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    return report;
}

std::vector<ScenarioReport>
SweepRunner::runAll(const std::vector<Scenario> &scenarios) const
{
    std::vector<ScenarioReport> reports;
    reports.reserve(scenarios.size());
    for (const auto &scenario : scenarios)
        reports.push_back(run(scenario));
    return reports;
}

} // namespace dnastore
