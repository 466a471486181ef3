#include <gtest/gtest.h>

#include "channel/ids_channel.hh"
#include "dna/codec.hh"
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
    std::vector<uint8_t> data(total_bytes);
    for (auto &x : data)
        x = uint8_t(rng.next());
    b.add("payload", std::move(data));
    return b;
}

std::vector<std::vector<Strand>>
cleanClusters(const EncodedUnit &unit, size_t copies)
{
    std::vector<std::vector<Strand>> clusters;
    for (const auto &s : unit.strands)
        clusters.emplace_back(copies, s);
    return clusters;
}

TEST(FaultInjection, ClusterOrderDoesNotMatter)
{
    // Placement is driven by the decoded ordering index, not cluster
    // position, so shuffling clusters must not change the result.
    auto cfg = StorageConfig::tinyTest();
    auto bundle = randomBundle(2000, 1);
    UnitEncoder enc(cfg, LayoutScheme::Baseline);
    UnitDecoder dec(cfg, LayoutScheme::Baseline);
    auto clusters = cleanClusters(enc.encode(bundle), 3);
    Rng rng(2);
    rng.shuffle(clusters);
    auto result = dec.decode(clusters);
    ASSERT_TRUE(result.bundleOk);
    EXPECT_TRUE(result.exact);
    EXPECT_EQ(result.bundle.file(0).data, bundle.file(0).data);
}

TEST(FaultInjection, CorruptedIndexBecomesErasure)
{
    // Force one cluster's index field (all reads!) to an invalid
    // column; the decoder must drop it and repair via erasure.
    auto cfg = StorageConfig::tinyTest();
    auto bundle = randomBundle(2000, 3);
    UnitEncoder enc(cfg, LayoutScheme::Gini);
    UnitDecoder dec(cfg, LayoutScheme::Gini);
    auto clusters = cleanClusters(enc.encode(bundle), 3);

    // Overwrite the index bases of cluster 5 with the index of
    // column 9 (a duplicate): one of the two claims loses.
    Strand idx9;
    appendUint(idx9, 9, int(cfg.indexBits()));
    for (auto &read : clusters[5])
        for (size_t i = 0; i < idx9.size(); ++i)
            read[cfg.primerLen + i] = idx9[i];

    auto result = dec.decode(clusters);
    ASSERT_TRUE(result.bundleOk);
    EXPECT_TRUE(result.exact);
    EXPECT_GE(result.stats.indexFaults, 1u);
    EXPECT_GE(result.stats.erasedColumns, 1u);
    EXPECT_EQ(result.bundle.file(0).data, bundle.file(0).data);
}

TEST(FaultInjection, MoreErasuresThanParityIsUnrecoverable)
{
    auto cfg = StorageConfig::tinyTest();
    auto bundle = randomBundle(1000, 4);
    UnitEncoder enc(cfg, LayoutScheme::Baseline);
    UnitDecoder dec(cfg, LayoutScheme::Baseline);
    auto clusters = cleanClusters(enc.encode(bundle), 2);
    for (size_t i = 0; i <= cfg.paritySymbols; ++i)
        clusters[i].clear();
    auto result = dec.decode(clusters);
    EXPECT_FALSE(result.exact);
    EXPECT_EQ(result.stats.failedCodewords, cfg.rows);
}

TEST(FaultInjection, SingleReadClustersStillDecodeAtLowNoise)
{
    auto cfg = StorageConfig::tinyTest();
    auto bundle = randomBundle(2000, 5);
    UnitEncoder enc(cfg, LayoutScheme::Gini);
    UnitDecoder dec(cfg, LayoutScheme::Gini);
    auto unit = enc.encode(bundle);
    Rng rng(6);
    IdsChannel channel(ErrorModel::uniform(0.001));
    std::vector<std::vector<Strand>> clusters;
    for (const auto &s : unit.strands)
        clusters.push_back(channel.transmitCluster(s, 1, rng));
    auto result = dec.decode(clusters);
    ASSERT_TRUE(result.bundleOk);
    EXPECT_TRUE(result.exact);
}

TEST(FaultInjection, TruncatedReadsDecodeViaEcc)
{
    // Some sequencers truncate reads; a cluster of half-length reads
    // yields garbage symbols in the lower rows of that column, which
    // ECC must absorb.
    auto cfg = StorageConfig::tinyTest();
    auto bundle = randomBundle(2000, 7);
    UnitEncoder enc(cfg, LayoutScheme::Baseline);
    UnitDecoder dec(cfg, LayoutScheme::Baseline);
    auto clusters = cleanClusters(enc.encode(bundle), 3);
    for (size_t col : { 3u, 77u, 200u }) {
        for (auto &read : clusters[col])
            read.resize(read.size() / 2);
    }
    auto result = dec.decode(clusters);
    ASSERT_TRUE(result.bundleOk);
    EXPECT_TRUE(result.exact);
}

TEST(FaultInjection, GarbageReadsInOneClusterAreContained)
{
    // A cluster polluted with unrelated sequences (clustering noise)
    // corrupts at most its own column.
    auto cfg = StorageConfig::tinyTest();
    auto bundle = randomBundle(2000, 8);
    UnitEncoder enc(cfg, LayoutScheme::Gini);
    UnitDecoder dec(cfg, LayoutScheme::Gini);
    auto clusters = cleanClusters(enc.encode(bundle), 3);
    Rng rng(9);
    for (auto &read : clusters[42]) {
        for (auto &b : read)
            b = baseFromBits(unsigned(rng.nextBelow(4)));
    }
    auto result = dec.decode(clusters);
    ASSERT_TRUE(result.bundleOk);
    EXPECT_TRUE(result.exact);
}

TEST(FaultInjection, BundleParseFailureIsReportedNotThrown)
{
    // With every cluster empty, bundle parsing must fail gracefully.
    auto cfg = StorageConfig::tinyTest();
    UnitDecoder dec(cfg, LayoutScheme::DnaMapper);
    std::vector<std::vector<Strand>> clusters(cfg.codewordLen());
    auto result = dec.decode(clusters);
    EXPECT_FALSE(result.exact);
    EXPECT_FALSE(result.bundleOk);
    EXPECT_EQ(result.bundle.fileCount(), 0u);
}

} // namespace
} // namespace dnastore
