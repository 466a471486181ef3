/**
 * Byte-for-byte pin of the durability-loop JSON renderings: the
 * HealthReport (detail and summary) of an aged tinyTest store and the
 * ScrubReport of the repair that follows. The golden files under
 * tests/api/golden/ are the schema and value contract of
 * `dnastore health` / `dnastore scrub` output; a change that moves a
 * key, reformats a number or shifts a probe value fails here.
 *
 * Fixture: StoreOptions::tiny() with unit seed 4242, a 2% IDS channel
 * at coverage 8 with an aging profile (25% strand loss, 0.4%
 * substitutions per epoch), one 900-byte object; aged one epoch, then
 * scrubbed with minReads = 6.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "api/api.hh"

using namespace dnastore;
using namespace dnastore::api;

namespace {

std::string
goldenPath(const std::string &name)
{
    std::string here = __FILE__;
    return here.substr(0, here.find_last_of('/') + 1) + "golden/" + name;
}

std::string
readGolden(const std::string &name)
{
    std::ifstream in(goldenPath(name), std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing golden file " << goldenPath(name);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

Store
openAgedFixture()
{
    StoreOptions options = StoreOptions::tiny();
    options.unitSeed(4242);
    AgingProfile aging;
    aging.strandLossRate = 0.25;
    aging.substitutionRate = 0.004;
    ChannelOptions channel;
    channel.errorRate(0.02).coverage(8).aging(aging);
    Result<Store> store = Store::open(options, channel);
    EXPECT_TRUE(store.ok()) << store.status().toString();
    std::vector<uint8_t> payload(900);
    for (size_t i = 0; i < payload.size(); ++i)
        payload[i] = uint8_t(6 + i * 17);
    EXPECT_TRUE(store->put("a.bin", payload).ok());
    Result<size_t> lost = store->age(1);
    EXPECT_TRUE(lost.ok()) << lost.status().toString();
    return std::move(*store);
}

} // namespace

TEST(HealthGolden, AgedHealthAndScrubJsonMatchGoldenBytes)
{
    Store store = openAgedFixture();

    Result<HealthReport> health = store.health();
    ASSERT_TRUE(health.ok()) << health.status().toString();
    EXPECT_EQ(health->toJson(), readGolden("health_aged_detail.json"));
    EXPECT_EQ(health->toJson(false),
              readGolden("health_aged_summary.json"));

    ScrubOptions policy;
    policy.minReads = 6;
    Result<ScrubReport> scrub = store.scrub(policy);
    ASSERT_TRUE(scrub.ok()) << scrub.status().toString();
    EXPECT_EQ(scrub->toJson(), readGolden("scrub_aged.json"));

    // The repaired pool's summary pins the scrub's effect on health.
    Result<HealthReport> repaired = store.health();
    ASSERT_TRUE(repaired.ok()) << repaired.status().toString();
    EXPECT_EQ(repaired->toJson(false),
              readGolden("health_scrubbed_summary.json"));
}
