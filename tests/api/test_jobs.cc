/**
 * Unit-text round trips (Store::encode -> decodeUnitText), TrialJob
 * equivalence with the raw simulator, the Scenario Lab determinism
 * contract (bit-identical series for every thread count), and the
 * deferred Future's snapshot: a pending trial batch runs on the
 * simulator it was submitted against, after rebuilds and after its
 * Store is gone.
 */

#include <gtest/gtest.h>

#include <limits>

#include "api/api.hh"
#include "pipeline/simulator.hh"
#include "util/rng.hh"

using namespace dnastore;
using namespace dnastore::api;

namespace {

std::vector<uint8_t>
patternBytes(size_t n, uint8_t base)
{
    std::vector<uint8_t> data(n);
    for (size_t i = 0; i < n; ++i)
        data[i] = uint8_t(base + i * 31);
    return data;
}

Store
openTiny(const ChannelOptions &channel)
{
    StoreOptions options = StoreOptions::tiny();
    options.unitSeed(77);
    Result<Store> store = Store::open(options, channel);
    EXPECT_TRUE(store.ok()) << store.status().toString();
    return std::move(*store);
}

} // namespace

TEST(UnitText, EncodeRoundTripsThroughDecodeUnitText)
{
    ChannelOptions channel;
    channel.errorRate(0.03).coverage(8);
    Store store = openTiny(channel);
    auto a = patternBytes(300, 1);
    auto b = patternBytes(500, 9);
    ASSERT_TRUE(store.put("a.bin", a).ok());
    ASSERT_TRUE(store.put("b.bin", b).ok());

    Result<EncodedArtifact> artifact = store.encode();
    ASSERT_TRUE(artifact.ok()) << artifact.status().toString();
    EXPECT_EQ(artifact->strands.size(),
              StorageConfig::tinyTest().codewordLen());
    EXPECT_EQ(artifact->config.symbolBits, 8u);
    // The header is self-describing.
    EXPECT_EQ(artifact->header.rfind("#dnastore ", 0), 0u);

    Result<DecodedObjects> decoded = decodeUnitText(artifact->text());
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    EXPECT_TRUE(decoded->exact);
    ASSERT_EQ(decoded->files.size(), 2u);
    EXPECT_EQ(decoded->files[0].name, "a.bin");
    EXPECT_EQ(decoded->files[0].data, a);
    EXPECT_EQ(decoded->files[1].name, "b.bin");
    EXPECT_EQ(decoded->files[1].data, b);
}

TEST(UnitText, BadHeaderIsFailedPrecondition)
{
    Result<DecodedObjects> decoded =
        decodeUnitText("not a unit file\nACGT\n");
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(),
              StatusCode::FailedPrecondition);

    decoded = decodeUnitText("#dnastore m=8 rows=12 parity=47 primer=10 "
                             "scheme=nonsense\n");
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(),
              StatusCode::FailedPrecondition);

    // A parsable header with an impossible geometry.
    decoded = decodeUnitText("#dnastore m=1 rows=12 parity=47 primer=10 "
                             "scheme=gini\n");
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(),
              StatusCode::FailedPrecondition);
}

TEST(TrialJob, MatchesRawSimulator)
{
    // The façade's TrialJob must reproduce StorageSimulator::runTrial
    // bit for bit: same profile, same seed, same outcome.
    ChannelProfile profile;
    profile.base = ErrorModel::uniform(0.04);
    profile.dropout.rate = 0.02;
    profile.dropout.burstLen = 2;

    StoreOptions options = StoreOptions::tiny();
    options.unitSeed(123);
    ChannelOptions channel;
    channel.profile(profile).coverage(6);
    Result<Store> opened = Store::open(options, channel);
    ASSERT_TRUE(opened.ok());
    auto payload = patternBytes(2000, 5);
    ASSERT_TRUE(opened->put("payload.bin", payload).ok());

    Rng seed_stream(99);
    TrialJob job;
    for (int i = 0; i < 6; ++i)
        job.trialSeeds.push_back(seed_stream.next());
    Result<TrialSeries> series = opened->submit(job).get();
    ASSERT_TRUE(series.ok()) << series.status().toString();
    ASSERT_EQ(series->trials.size(), 6u);

    // Reference: the raw simulator on an identical unit.
    FileBundle bundle;
    bundle.add("payload.bin", payload);
    StorageSimulator sim(StorageConfig::tinyTest(),
                         LayoutScheme::Gini, profile, 123);
    sim.prepare(bundle);
    CoverageModel coverage = CoverageModel::fixed(6);
    for (size_t t = 0; t < job.trialSeeds.size(); ++t) {
        TrialOutcome outcome =
            sim.runTrial(coverage, job.trialSeeds[t]);
        const TrialResult &got = series->trials[t];
        EXPECT_EQ(got.success, outcome.result.exactPayload);
        EXPECT_DOUBLE_EQ(got.byteErrorRate, outcome.byteErrorRate);
        EXPECT_EQ(got.erasedColumns,
                  outcome.result.decoded.stats.erasedColumns);
        EXPECT_EQ(got.failedCodewords,
                  outcome.result.decoded.stats.failedCodewords);
        EXPECT_EQ(got.correctedErrors,
                  outcome.result.decoded.stats.totalCorrected());
        EXPECT_EQ(got.readsGenerated, outcome.readsGenerated);
        EXPECT_EQ(got.clustersDropped, outcome.clustersDropped);
    }
}

TEST(TrialJob, SeriesIsThreadCountInvariant)
{
    ChannelProfile profile;
    profile.base = ErrorModel::nanopore(0.05);
    profile.ramp.startFrac = 0.7;
    profile.ramp.endMultiplier = 2.5;

    StoreOptions options = StoreOptions::tiny();
    options.unitSeed(2024);
    ChannelOptions channel;
    channel.profile(profile).gammaCoverage(8.0, 4.0);
    Result<Store> opened = Store::open(options, channel);
    ASSERT_TRUE(opened.ok());
    ASSERT_TRUE(
        opened->put("payload.bin", patternBytes(1800, 17)).ok());

    Rng seed_stream(31337);
    std::vector<uint64_t> seeds(16);
    for (auto &s : seeds)
        s = seed_stream.next();

    std::vector<TrialSeries> runs;
    for (size_t threads : { size_t(1), size_t(4), size_t(8) }) {
        TrialJob job;
        job.trialSeeds = seeds;
        job.threads = threads;
        Result<TrialSeries> series = opened->submit(job).get();
        ASSERT_TRUE(series.ok()) << series.status().toString();
        runs.push_back(std::move(*series));
    }
    for (size_t r = 1; r < runs.size(); ++r) {
        ASSERT_EQ(runs[r].trials.size(), runs[0].trials.size());
        for (size_t t = 0; t < runs[0].trials.size(); ++t) {
            const TrialResult &a = runs[0].trials[t];
            const TrialResult &b = runs[r].trials[t];
            EXPECT_EQ(a.success, b.success);
            EXPECT_EQ(a.byteErrorRate, b.byteErrorRate);
            EXPECT_EQ(a.erasedColumns, b.erasedColumns);
            EXPECT_EQ(a.failedCodewords, b.failedCodewords);
            EXPECT_EQ(a.correctedErrors, b.correctedErrors);
            EXPECT_EQ(a.readsGenerated, b.readsGenerated);
            EXPECT_EQ(a.clustersDropped, b.clustersDropped);
        }
    }
}

TEST(TrialJob, TwoPendingJobsShareTheStore)
{
    // Two batches pending at once, read in reverse submit order: job
    // bodies only touch const simulator paths, so neither changes.
    ChannelOptions channel;
    channel.errorRate(0.04).coverage(6);
    Store store = openTiny(channel);
    ASSERT_TRUE(store.put("p", patternBytes(900, 2)).ok());

    TrialJob job_a;
    job_a.trialSeeds = { 11, 22, 33, 44 };
    TrialJob job_b;
    job_b.trialSeeds = { 55, 66, 77, 88 };
    auto fut_a = store.submit(job_a);
    auto fut_b = store.submit(job_b);
    Result<TrialSeries> b = fut_b.get();
    Result<TrialSeries> a = fut_a.get();
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());

    // Serial reference runs.
    Result<TrialSeries> a2 = store.submit(job_a).get();
    ASSERT_TRUE(a2.ok());
    for (size_t t = 0; t < a->trials.size(); ++t) {
        EXPECT_EQ(a->trials[t].success, a2->trials[t].success);
        EXPECT_EQ(a->trials[t].correctedErrors,
                  a2->trials[t].correctedErrors);
    }
}

TEST(TrialJob, SurvivesRebuildBeforeGet)
{
    // Regression: a retrieval (or put + retrieval) while a TrialJob
    // is pending rebuilds the store's simulator; the job must keep
    // its own snapshot alive instead of dereferencing the freed one.
    // (ASan-guarded in the sanitizer CI job.)
    ChannelOptions channel;
    channel.errorRate(0.04).coverage(6);
    Store store = openTiny(channel);
    ASSERT_TRUE(store.put("p", patternBytes(900, 2)).ok());

    TrialJob job;
    Rng seed_stream(5);
    for (int i = 0; i < 12; ++i)
        job.trialSeeds.push_back(seed_stream.next());
    auto future = store.submit(job);

    // Force a rebuild before get(): a new object dirties the unit and
    // the retrieval re-synthesizes it.
    ASSERT_TRUE(store.put("q", patternBytes(300, 9)).ok());
    ASSERT_TRUE(store.retrieveAll().ok());

    Result<TrialSeries> series = future.get();
    ASSERT_TRUE(series.ok()) << series.status().toString();
    ASSERT_EQ(series->trials.size(), 12u);

    // The pending job saw the pre-rebuild unit: identical to a fresh
    // single-object store.
    Store reference = openTiny(channel);
    ASSERT_TRUE(reference.put("p", patternBytes(900, 2)).ok());
    Result<TrialSeries> expected = reference.submit(job).get();
    ASSERT_TRUE(expected.ok());
    for (size_t t = 0; t < series->trials.size(); ++t) {
        EXPECT_EQ(series->trials[t].success,
                  expected->trials[t].success);
        EXPECT_EQ(series->trials[t].correctedErrors,
                  expected->trials[t].correctedErrors);
        EXPECT_EQ(series->trials[t].readsGenerated,
                  expected->trials[t].readsGenerated);
    }
}

TEST(TrialJob, FutureOutlivesItsStore)
{
    // The Future owns its snapshot: reading it after the Store is
    // destroyed runs the batch on the submitted unit. (ASan-guarded
    // in the sanitizer CI job.)
    ChannelOptions channel;
    channel.errorRate(0.04).coverage(6);
    TrialJob job;
    job.trialSeeds = { 3, 1, 4, 1, 5 };
    job.threads = 2;
    Future<Result<TrialSeries>> future;
    {
        Store store = openTiny(channel);
        ASSERT_TRUE(store.put("p", patternBytes(900, 2)).ok());
        future = store.submit(job);
    }
    Result<TrialSeries> series = future.get();
    ASSERT_TRUE(series.ok()) << series.status().toString();
    ASSERT_EQ(series->trials.size(), job.trialSeeds.size());

    Store reference = openTiny(channel);
    ASSERT_TRUE(reference.put("p", patternBytes(900, 2)).ok());
    Result<TrialSeries> expected = reference.submit(job).get();
    ASSERT_TRUE(expected.ok());
    for (size_t t = 0; t < series->trials.size(); ++t) {
        EXPECT_EQ(series->trials[t].success,
                  expected->trials[t].success);
        EXPECT_EQ(series->trials[t].byteErrorRate,
                  expected->trials[t].byteErrorRate);
        EXPECT_EQ(series->trials[t].readsGenerated,
                  expected->trials[t].readsGenerated);
    }

    // The Result is yielded exactly once.
    EXPECT_FALSE(future.valid());
    EXPECT_EQ(future.get().status().code(),
              StatusCode::FailedPrecondition);
}

TEST(UnitText, PrimerKeySurvivesTheArtifact)
{
    // Regression: a non-default primerKey derives a different primer
    // pair; the artifact header must carry it or decodeUnitText
    // searches for the wrong primers in perfectly clean text.
    StoreOptions options = StoreOptions::tiny();
    options.primerKey(0xABC).unitSeed(7);
    ChannelOptions channel;
    channel.errorRate(0.01).coverage(6);
    Result<Store> opened = Store::open(options, channel);
    ASSERT_TRUE(opened.ok());
    auto payload = patternBytes(400, 3);
    ASSERT_TRUE(opened->put("k.bin", payload).ok());

    Result<EncodedArtifact> artifact = opened->encode();
    ASSERT_TRUE(artifact.ok());
    EXPECT_NE(artifact->header.find(" key="), std::string::npos);

    Result<DecodedObjects> decoded = decodeUnitText(artifact->text());
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    EXPECT_TRUE(decoded->exact);
    ASSERT_EQ(decoded->files.size(), 1u);
    EXPECT_EQ(decoded->files[0].data, payload);
}

TEST(TrialJob, ClustererWithoutOptionsIsFailedPrecondition)
{
    ChannelOptions channel;
    channel.errorRate(0.03).coverage(6);
    Store store = openTiny(channel);
    ASSERT_TRUE(store.put("p", patternBytes(500, 2)).ok());
    TrialJob job;
    job.trialSeeds = { 1 };
    job.useClusterer = true;
    Result<TrialSeries> series = store.submit(job).get();
    ASSERT_FALSE(series.ok());
    EXPECT_EQ(series.status().code(),
              StatusCode::FailedPrecondition);
}

TEST(TrialJob, NonFiniteScrubPolicyIsInvalidArgument)
{
    // Store::scrub rejects this policy; a scrubbing TrialJob runs the
    // same rule instead of scrubbing nothing.
    AgingProfile aging;
    aging.strandLossRate = 0.2;
    ChannelOptions channel;
    channel.errorRate(0.03).coverage(6).aging(aging);
    Store store = openTiny(channel);
    ASSERT_TRUE(store.put("p", patternBytes(500, 2)).ok());
    TrialJob job;
    job.trialSeeds = { 1 };
    job.agingEpochs = 1;
    job.scrubEachEpoch = true;
    job.scrub.minAgreement = std::numeric_limits<double>::quiet_NaN();
    Result<TrialSeries> series = store.submit(job).get();
    ASSERT_FALSE(series.ok());
    EXPECT_EQ(series.status().code(), StatusCode::InvalidArgument);
    EXPECT_EQ(series.status().message(),
              "scrub min-agreement must be finite");
}

TEST(TrialJob, EmptySeedListYieldsEmptySeries)
{
    ChannelOptions channel;
    channel.errorRate(0.03).coverage(6);
    Store store = openTiny(channel);
    ASSERT_TRUE(store.put("p", patternBytes(500, 2)).ok());
    Result<TrialSeries> series = store.submit(TrialJob{}).get();
    ASSERT_TRUE(series.ok());
    EXPECT_TRUE(series->trials.empty());
}
