/**
 * The durability loop through the api::Store façade: health
 * telemetry, the aging fault injector, scrubbing, the
 * retrieveAll memo-invalidation contract (a stale memo must never
 * serve pre-mutation results), and the StatusCode producing-path
 * audit (every code is reachable through the public API or is
 * explicitly documented reserved).
 */

#include <gtest/gtest.h>

#include <fstream>
#include <limits>

#include "api/api.hh"

using namespace dnastore;
using namespace dnastore::api;

namespace {

std::vector<uint8_t>
patternBytes(size_t n, uint8_t base)
{
    std::vector<uint8_t> data(n);
    for (size_t i = 0; i < n; ++i)
        data[i] = uint8_t(base + i * 17);
    return data;
}

AgingProfile
decayProfile(double loss = 0.25, double sub = 0.004)
{
    AgingProfile aging;
    aging.strandLossRate = loss;
    aging.substitutionRate = sub;
    return aging;
}

Store
openAging(const AgingProfile &aging, uint64_t seed = 4242)
{
    StoreOptions options = StoreOptions::tiny();
    options.unitSeed(seed);
    ChannelOptions channel;
    channel.errorRate(0.02).coverage(8).aging(aging);
    Result<Store> store = Store::open(options, channel);
    EXPECT_TRUE(store.ok()) << store.status().toString();
    return std::move(*store);
}

Store
openPlain(uint64_t seed = 4242)
{
    StoreOptions options = StoreOptions::tiny();
    options.unitSeed(seed);
    ChannelOptions channel;
    channel.errorRate(0.02).coverage(8);
    Result<Store> store = Store::open(options, channel);
    EXPECT_TRUE(store.ok()) << store.status().toString();
    return std::move(*store);
}

/**
 * Age @p store one epoch at a time until the full-depth probe says
 * the unit no longer decodes exactly (deterministic for a fixed seed;
 * the epoch cap is a safety net). True once degraded.
 */
bool
decayUntilInexact(Store &store)
{
    for (int epoch = 0; epoch < 12; ++epoch) {
        if (!store.age(1).ok())
            return false;
        Result<HealthReport> health = store.health();
        if (!health.ok())
            return false;
        if (!health->exact)
            return true;
    }
    return false;
}

} // namespace

TEST(StoreHealth, FreshPoolIsExactWithFullTelemetry)
{
    Store store = openPlain();
    ASSERT_TRUE(store.put("a.bin", patternBytes(900, 1)).ok());

    Result<HealthReport> health = store.health();
    ASSERT_TRUE(health.ok()) << health.status().toString();
    EXPECT_TRUE(health->exact);
    EXPECT_GT(health->clusters, 0u);
    EXPECT_EQ(health->perCluster.size(), health->clusters);
    EXPECT_EQ(health->emptyClusters, 0u);
    EXPECT_EQ(health->agedEpochs, 0u);
    EXPECT_EQ(health->liveReads,
              health->clusters * health->poolCoverage);
    EXPECT_GE(health->minMargin, 0);
    EXPECT_GT(health->meanAgreement, 0.5);
    EXPECT_GE(health->meanAgreement, health->minAgreement);

    // Every codeword decoded, and the margin identity holds.
    ASSERT_FALSE(health->perCodeword.empty());
    for (const auto &cw : health->perCodeword) {
        EXPECT_TRUE(cw.ok);
        EXPECT_GE(cw.margin, health->minMargin);
    }
}

TEST(StoreHealth, JsonIsDeterministicAndDetailGated)
{
    Store store = openPlain();
    ASSERT_TRUE(store.put("a.bin", patternBytes(600, 2)).ok());

    Result<HealthReport> health = store.health();
    ASSERT_TRUE(health.ok());
    const std::string detailed = health->toJson();
    const std::string summary = health->toJson(false);

    // Same state, same bytes — the CI diff contract.
    Result<HealthReport> again = store.health();
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->toJson(), detailed);

    EXPECT_NE(detailed.find("\"per_cluster\""), std::string::npos);
    EXPECT_NE(detailed.find("\"per_codeword\""), std::string::npos);
    EXPECT_EQ(summary.find("\"per_cluster\""), std::string::npos);
    EXPECT_NE(summary.find("\"min_margin\""), std::string::npos);
}

TEST(StoreAge, WithoutAgingProfileIsFailedPrecondition)
{
    Store store = openPlain();
    ASSERT_TRUE(store.put("a.bin", patternBytes(600, 3)).ok());
    Result<size_t> lost = store.age(1);
    ASSERT_FALSE(lost.ok());
    EXPECT_EQ(lost.status().code(), StatusCode::FailedPrecondition);
}

TEST(StoreAge, AppliesDecayAndCountsEpochs)
{
    Store store = openAging(decayProfile());
    ASSERT_TRUE(store.put("a.bin", patternBytes(900, 4)).ok());

    Result<HealthReport> before = store.health();
    ASSERT_TRUE(before.ok());

    Result<size_t> lost = store.age(2);
    ASSERT_TRUE(lost.ok()) << lost.status().toString();
    EXPECT_GT(*lost, 0u);

    Result<HealthReport> after = store.health();
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after->agedEpochs, 2u);
    EXPECT_EQ(after->liveReads, before->liveReads - *lost);
    EXPECT_LT(after->liveReads, before->liveReads);
}

TEST(StoreScrub, HealthyPoolIsANoop)
{
    Store store = openPlain();
    ASSERT_TRUE(store.put("a.bin", patternBytes(600, 5)).ok());

    // Default policy: repair only clusters that lost their column
    // claim. A fresh pool has none.
    Result<ScrubReport> report = store.scrub();
    ASSERT_TRUE(report.ok()) << report.status().toString();
    EXPECT_EQ(report->lowMargin, 0u);
    EXPECT_EQ(report->repaired, 0u);
    EXPECT_EQ(report->readsRewritten, 0u);
    EXPECT_GT(report->clustersScanned, 0u);
}

// ScrubOptions is a plain struct with no builder, so the non-finite
// gate lives at the Store boundary: NaN min-agreement compares false
// against every threshold and would silently scrub nothing.
TEST(StoreScrub, RejectsNonFiniteMinAgreement)
{
    Store store = openPlain();
    ASSERT_TRUE(store.put("a.bin", patternBytes(600, 9)).ok());

    ScrubOptions policy;
    policy.minAgreement = std::numeric_limits<double>::quiet_NaN();
    Result<ScrubReport> report = store.scrub(policy);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::InvalidArgument);
    EXPECT_NE(report.status().message().find("min-agreement"),
              std::string::npos)
        << report.status().message();
}

TEST(StoreScrub, RepairsAgedPoolBackToExact)
{
    Store store = openAging(decayProfile());
    const std::vector<uint8_t> payload = patternBytes(900, 6);
    ASSERT_TRUE(store.put("a.bin", payload).ok());
    ASSERT_TRUE(store.age(1).ok());

    ScrubOptions policy;
    policy.minReads = 6;
    Result<ScrubReport> report = store.scrub(policy);
    ASSERT_TRUE(report.ok()) << report.status().toString();
    EXPECT_TRUE(report->repairable);
    EXPECT_GT(report->repaired, 0u);
    EXPECT_EQ(report->unrepairable, 0u);
    EXPECT_GT(report->readsRewritten, 0u);

    // Repaired clusters are back at full depth and the unit decodes
    // exactly.
    Result<HealthReport> health = store.health();
    ASSERT_TRUE(health.ok());
    EXPECT_TRUE(health->exact);
    Result<std::vector<uint8_t>> got = store.get("a.bin");
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, payload);

    // The scrub-report JSON is deterministic too.
    EXPECT_EQ(report->toJson(), report->toJson());
}

// Satellite regression: the retrieveAll memo must be dropped on
// every pool mutation. Aging the pool after a successful (and
// memoized) retrieval must force a re-decode — a stale memo would
// keep serving the pre-aging "exact" result forever.
TEST(StoreMemo, AgingInvalidatesTheRetrieveAllMemo)
{
    Store store = openAging(decayProfile(0.5, 0.01));
    ASSERT_TRUE(store.put("a.bin", patternBytes(900, 7)).ok());

    Result<Retrieval> first = store.retrieveAll();
    ASSERT_TRUE(first.ok());
    EXPECT_TRUE(first->exact);

    // Decay hard until the unit no longer decodes exactly.
    ASSERT_TRUE(decayUntilInexact(store))
        << "aging never degraded the pool";

    // A stale memo would still answer exact=true here.
    Result<Retrieval> second = store.retrieveAll();
    if (second.ok()) {
        EXPECT_FALSE(second->exact);
    }
    // (A decode so degraded the directory fails to parse surfaces as
    // an error Status instead — also proof the memo was dropped.)
}

// The same contract for scrub repairs: after a repair the next
// retrieveAll must re-decode against the rewritten pool instead of
// serving pre-repair results.
TEST(StoreMemo, ScrubRepairInvalidatesTheRetrieveAllMemo)
{
    Store store = openAging(decayProfile());
    ASSERT_TRUE(store.put("a.bin", patternBytes(900, 8)).ok());
    ASSERT_TRUE(store.age(2).ok());

    Result<Retrieval> before = store.retrieveAll();
    ASSERT_TRUE(before.ok());
    // The aged pool works harder: thinner clusters mean erasures
    // and/or more corrected symbols than a repaired pool needs.
    const size_t aged_cost =
        2 * before->erasedColumns + before->correctedErrors;

    ScrubOptions policy;
    policy.repairAll = true;
    Result<ScrubReport> report = store.scrub(policy);
    ASSERT_TRUE(report.ok()) << report.status().toString();
    EXPECT_GT(report->repaired, 0u);

    Result<Retrieval> after = store.retrieveAll();
    ASSERT_TRUE(after.ok());
    EXPECT_TRUE(after->exact);
    // A stale memo would replay the identical aged statistics; the
    // rewritten full-depth pool decodes strictly cheaper.
    const size_t repaired_cost =
        2 * after->erasedColumns + after->correctedErrors;
    EXPECT_LT(repaired_cost, aged_cost);
}

TEST(StoreScrub, UnrepairablePoolIsUnavailable)
{
    Store store = openAging(decayProfile(0.5, 0.01));
    ASSERT_TRUE(store.put("a.bin", patternBytes(900, 9)).ok());

    // Decay until the full-depth decode fails; a scrub that selects
    // clusters now cannot trust the recovered data to rewrite them.
    ASSERT_TRUE(decayUntilInexact(store));

    ScrubOptions policy;
    policy.minReads = 6;
    Result<ScrubReport> report = store.scrub(policy);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::Unavailable);
}

// encode() and submit() on a moved-from (torn-down) Store answer
// Unavailable instead of dereferencing the dead handle.
TEST(StoreSubmit, MovedFromStoreIsUnavailable)
{
    Store store = openPlain();
    ASSERT_TRUE(store.put("a.bin", patternBytes(600, 10)).ok());
    Store taken = std::move(store);

    // Every Status- or Result-returning method answers Unavailable.
    auto unavailable = [](const Status &status, const char *call) {
        EXPECT_EQ(status.code(), StatusCode::Unavailable) << call;
    };
    const std::string path = testing::TempDir() + "moved_from.dnapool";
    unavailable(store.save(path), "save");
    EXPECT_FALSE(std::ifstream(path).good());
    unavailable(store.put("b.bin", patternBytes(10, 1)), "put");
    unavailable(store.synthesize(), "synthesize");
    unavailable(store.get("a.bin").status(), "get");
    unavailable(store.retrieveAll().status(), "retrieveAll");
    unavailable(store.retrieveShared().status(), "retrieveShared");
    unavailable(store.retrieveAt(1).status(), "retrieveAt");
    unavailable(store.minExactCoverage(1, 2).status(), "minExactCoverage");
    unavailable(store.health().status(), "health");
    unavailable(store.age(1).status(), "age");
    unavailable(store.scrub().status(), "scrub");
    unavailable(store.encode().status(), "encode");
    unavailable(store.submit(TrialJob{}).get().status(), "submit");

    // The plain accessors return their documented empty values.
    EXPECT_TRUE(store.list().empty());
    EXPECT_FALSE(store.contains("a.bin"));
    EXPECT_EQ(store.objectCount(), 0u);
    EXPECT_EQ(store.totalBytes(), 0u);
    EXPECT_FALSE(store.readOnly());
    EXPECT_EQ(store.capacityBytes(), 0u);
    EXPECT_EQ(store.strandCount(), 0u);
    EXPECT_EQ(store.unitConfig().rows, StoreOptions().config().rows);
    EXPECT_EQ(store.options().layout(), StoreOptions().layout());

    // The moved-to store still works.
    EXPECT_TRUE(taken.contains("a.bin"));
    EXPECT_TRUE(taken.health().ok());
}

// Satellite audit: every StatusCode either has a producing path
// through the public API (exercised here) or is documented reserved.
TEST(StatusCodes, EveryCodeHasAProducingPathOrIsReserved)
{
    // Ok: any successful operation.
    Store store = openPlain();
    Status ok = store.put("a.bin", patternBytes(600, 11));
    EXPECT_EQ(ok.code(), StatusCode::Ok);

    // InvalidArgument: rejected configuration.
    EXPECT_EQ(Store::open(StoreOptions().symbolBits(1)).status().code(),
              StatusCode::InvalidArgument);

    // NotFound: unknown object name.
    EXPECT_EQ(store.get("missing").status().code(),
              StatusCode::NotFound);

    // AlreadyExists: duplicate object name.
    EXPECT_EQ(store.put("a.bin", patternBytes(10, 12)).code(),
              StatusCode::AlreadyExists);

    // CapacityExceeded: payload larger than the unit.
    EXPECT_EQ(store.put("big.bin", patternBytes(1 << 22, 13)).code(),
              StatusCode::CapacityExceeded);

    // FailedPrecondition: aging without an aging profile.
    EXPECT_EQ(store.age(1).status().code(),
              StatusCode::FailedPrecondition);

    // DataLoss: a flipped byte in a saved pool file.
    const std::string path =
        testing::TempDir() + "status_code_audit.dnapool";
    ASSERT_EQ(store.save(path, true).code(), StatusCode::Ok);
    {
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.good());
        f.seekp(64);
        char byte = 0;
        f.seekg(64);
        f.get(byte);
        f.seekp(64);
        byte = char(byte ^ 0x20);
        f.put(byte);
    }
    ChannelOptions channel;
    channel.errorRate(0.02).coverage(8);
    EXPECT_EQ(Store::openFile(path, channel).status().code(),
              StatusCode::DataLoss);
    std::remove(path.c_str());

    // Unavailable: a scrub that cannot trust its repairs (also:
    // encode() or submit() on a torn-down store — see
    // StoreSubmit.MovedFromStoreIsUnavailable).
    Store aged = openAging(decayProfile(0.5, 0.01));
    ASSERT_TRUE(aged.put("a.bin", patternBytes(900, 9)).ok());
    ASSERT_TRUE(decayUntilInexact(aged));
    ScrubOptions policy;
    policy.minReads = 6;
    EXPECT_EQ(aged.scrub(policy).status().code(),
              StatusCode::Unavailable);

    // Internal: reserved for the no-throw boundary's catch-all (an
    // unexpected exception escaping the pipeline). There is by
    // design no way to trigger it through valid API use; it exists
    // so a pipeline bug surfaces as a Status instead of a crash.
}
