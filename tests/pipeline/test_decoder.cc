#include <gtest/gtest.h>

#include "channel/ids_channel.hh"
#include "pipeline/decoder.hh"
#include "pipeline/encoder.hh"
#include "util/rng.hh"

namespace dnastore {
namespace {

FileBundle
randomBundle(size_t total_bytes, uint64_t seed)
{
    Rng rng(seed);
    FileBundle b;
    size_t remaining = total_bytes;
    size_t i = 0;
    while (remaining > 0) {
        size_t take = std::min(remaining, size_t(300 + rng.nextBelow(200)));
        std::vector<uint8_t> data(take);
        for (auto &x : data)
            x = uint8_t(rng.next());
        b.add("f" + std::to_string(i++), std::move(data));
        remaining -= take;
    }
    return b;
}

std::vector<std::vector<Strand>>
cleanClusters(const EncodedUnit &unit, size_t copies)
{
    std::vector<std::vector<Strand>> clusters;
    clusters.reserve(unit.strands.size());
    for (const auto &s : unit.strands)
        clusters.emplace_back(copies, s);
    return clusters;
}

class DecoderSchemes : public ::testing::TestWithParam<LayoutScheme> {};

TEST_P(DecoderSchemes, NoiselessRoundTrip)
{
    auto cfg = StorageConfig::tinyTest();
    auto bundle = randomBundle(cfg.capacityBytes() / 2, 1);
    UnitEncoder enc(cfg, GetParam());
    UnitDecoder dec(cfg, GetParam());
    auto result = dec.decode(cleanClusters(enc.encode(bundle), 3));
    ASSERT_TRUE(result.bundleOk);
    EXPECT_TRUE(result.exact);
    EXPECT_EQ(result.stats.erasedColumns, 0u);
    EXPECT_EQ(result.stats.failedCodewords, 0u);
    ASSERT_EQ(result.bundle.fileCount(), bundle.fileCount());
    for (size_t i = 0; i < bundle.fileCount(); ++i)
        EXPECT_EQ(result.bundle.file(i).data, bundle.file(i).data);
}

TEST_P(DecoderSchemes, NoisyChannelRoundTrip)
{
    auto cfg = StorageConfig::tinyTest();
    auto bundle = randomBundle(cfg.capacityBytes() / 2, 2);
    UnitEncoder enc(cfg, GetParam());
    UnitDecoder dec(cfg, GetParam());
    auto unit = enc.encode(bundle);

    Rng rng(7);
    IdsChannel channel(ErrorModel::uniform(0.03));
    std::vector<std::vector<Strand>> clusters;
    for (const auto &s : unit.strands)
        clusters.push_back(channel.transmitCluster(s, 10, rng));
    auto result = dec.decode(clusters);
    ASSERT_TRUE(result.bundleOk);
    EXPECT_TRUE(result.exact);
    for (size_t i = 0; i < bundle.fileCount(); ++i)
        EXPECT_EQ(result.bundle.file(i).data, bundle.file(i).data);
}

TEST_P(DecoderSchemes, SurvivesLostClusters)
{
    // Erasure protection: up to E lost molecules are recoverable.
    auto cfg = StorageConfig::tinyTest();
    auto bundle = randomBundle(2000, 3);
    UnitEncoder enc(cfg, GetParam());
    UnitDecoder dec(cfg, GetParam());
    auto clusters = cleanClusters(enc.encode(bundle), 3);
    Rng rng(8);
    // Drop E/2 random clusters entirely.
    for (size_t k = 0; k < cfg.paritySymbols / 2; ++k)
        clusters[rng.nextBelow(clusters.size())].clear();
    auto result = dec.decode(clusters);
    ASSERT_TRUE(result.bundleOk);
    EXPECT_TRUE(result.exact);
    EXPECT_GT(result.stats.erasedColumns, 0u);
    for (size_t i = 0; i < bundle.fileCount(); ++i)
        EXPECT_EQ(result.bundle.file(i).data, bundle.file(i).data);
}

TEST_P(DecoderSchemes, ForcedErasuresReduceEffectiveRedundancy)
{
    // Erasing more than E columns must make decoding fail; erasing
    // fewer must not.
    auto cfg = StorageConfig::tinyTest();
    auto bundle = randomBundle(1500, 4);
    UnitEncoder enc(cfg, GetParam());
    UnitDecoder dec(cfg, GetParam());
    auto unit = enc.encode(bundle);

    std::vector<size_t> some(cfg.paritySymbols - 1);
    for (size_t i = 0; i < some.size(); ++i)
        some[i] = i * 2;
    auto ok = dec.decode(cleanClusters(unit, 3), some);
    EXPECT_TRUE(ok.exact);

    std::vector<size_t> toomany(cfg.paritySymbols + 1);
    for (size_t i = 0; i < toomany.size(); ++i)
        toomany[i] = i * 2;
    auto bad = dec.decode(cleanClusters(unit, 3), toomany);
    EXPECT_FALSE(bad.exact);
    EXPECT_GT(bad.stats.failedCodewords, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, DecoderSchemes,
                         ::testing::Values(LayoutScheme::Baseline,
                                           LayoutScheme::Gini,
                                           LayoutScheme::DnaMapper));

TEST(UnitDecoder, EmptyClusterSetIsAllErasures)
{
    auto cfg = StorageConfig::tinyTest();
    UnitDecoder dec(cfg, LayoutScheme::Baseline);
    std::vector<std::vector<Strand>> clusters(cfg.codewordLen());
    auto result = dec.decode(clusters);
    EXPECT_FALSE(result.exact);
    EXPECT_EQ(result.stats.erasedColumns, cfg.codewordLen());
}

TEST(UnitDecoder, GiniSpreadsMiddleErrorsAcrossCodewords)
{
    // The core Figure 11 property at test scale: concentrate symbol
    // corruption in the middle rows; the baseline piles it into the
    // middle codewords while Gini spreads it evenly.
    auto cfg = StorageConfig::tinyTest();
    auto bundle = randomBundle(2000, 5);

    for (auto scheme : { LayoutScheme::Baseline, LayoutScheme::Gini }) {
        UnitEncoder enc(cfg, scheme);
        UnitDecoder dec(cfg, scheme);
        auto unit = enc.encode(bundle);
        // Corrupt the middle-row symbol of every 13th molecule by
        // editing the payload bases directly; ~20 symbol errors stay
        // within the E/2 = 23 correction budget of a single codeword.
        auto clusters = cleanClusters(unit, 3);
        size_t mid_row = cfg.rows / 2;
        for (size_t col = 0; col < clusters.size(); col += 13) {
            for (auto &read : clusters[col]) {
                // Base offset of the middle row's symbol.
                size_t bit = mid_row * cfg.symbolBits;
                size_t base = cfg.primerLen + cfg.indexBases() + bit / 2;
                read[base] = complement(read[base]);
            }
        }
        auto result = dec.decode(clusters);
        ASSERT_TRUE(result.exact) << layoutSchemeName(scheme);
        const auto &per_cw = result.stats.errorsPerCodeword;
        size_t max_cw = *std::max_element(per_cw.begin(), per_cw.end());
        if (scheme == LayoutScheme::Baseline) {
            // All ~n/13 errors land in the middle-row codeword.
            EXPECT_GT(max_cw, 15u);
        } else {
            // Gini: every codeword sees at most a handful.
            EXPECT_LE(max_cw, 4u);
        }
    }
}

TEST(UnitDecoder, StatsTotalCorrectedSumsPerCodeword)
{
    DecodeStats stats;
    stats.errorsPerCodeword = { 3, 0, 7 };
    EXPECT_EQ(stats.totalCorrected(), 10u);
}

} // namespace
} // namespace dnastore
