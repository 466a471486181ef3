#include <gtest/gtest.h>

#include "channel/ids_channel.hh"
#include "fuzz_iters.hh"
#include "pipeline/decoder.hh"
#include "pipeline/encoder.hh"
#include "util/rng.hh"

namespace dnastore {
namespace {

/**
 * Randomized end-to-end property: random multi-file bundles pushed
 * through random schemes and mild channel noise must round-trip
 * exactly, for several matrix geometries.
 */
TEST(PipelineFuzz, RandomBundlesRoundTripAcrossGeometries)
{
    Rng rng(31337);
    const LayoutScheme schemes[3] = { LayoutScheme::Baseline,
                                      LayoutScheme::Gini,
                                      LayoutScheme::DnaMapper };
    const int iters = fuzzIters(12);
    for (int iter = 0; iter < iters; ++iter) {
        StorageConfig cfg = StorageConfig::tinyTest();
        cfg.rows = 4 + rng.nextBelow(20);
        cfg.paritySymbols = 16 + rng.nextBelow(60);
        cfg.primerLen = 8 + rng.nextBelow(16);
        cfg.validate();

        // Random bundle occupying a random fraction of the unit.
        FileBundle bundle;
        size_t budget =
            cfg.capacityBytes() * (1 + rng.nextBelow(80)) / 100;
        size_t file_idx = 0;
        while (budget > 40) {
            size_t take = std::min<size_t>(
                budget, 1 + rng.nextBelow(2000));
            std::vector<uint8_t> data(take);
            for (auto &b : data)
                b = uint8_t(rng.next());
            bundle.add("f" + std::to_string(file_idx++),
                       std::move(data));
            budget -= take;
            if (rng.nextDouble() < 0.3)
                break;
        }

        LayoutScheme scheme = schemes[rng.nextBelow(3)];
        UnitEncoder enc(cfg, scheme);
        UnitDecoder dec(cfg, scheme);
        auto unit = enc.encode(bundle);

        IdsChannel channel(ErrorModel::uniform(0.01));
        std::vector<std::vector<Strand>> clusters;
        for (const auto &s : unit.strands)
            clusters.push_back(channel.transmitCluster(s, 5, rng));
        // Lose a few molecules too.
        for (size_t k = 0; k < cfg.paritySymbols / 4; ++k)
            clusters[rng.nextBelow(clusters.size())].clear();

        auto result = dec.decode(clusters);
        ASSERT_TRUE(result.bundleOk)
            << "iter " << iter << " scheme "
            << layoutSchemeName(scheme) << " rows " << cfg.rows;
        ASSERT_TRUE(result.exact);
        ASSERT_EQ(result.bundle.fileCount(), bundle.fileCount());
        for (size_t i = 0; i < bundle.fileCount(); ++i) {
            EXPECT_EQ(result.bundle.file(i).name, bundle.file(i).name);
            EXPECT_EQ(result.bundle.file(i).data, bundle.file(i).data);
        }
    }
}

/** Odd-width symbol geometries (symbolBits not a multiple of 2 bits
 *  per base boundary) must still round-trip: 2 bits/base packing pads
 *  the last base of each strand. */
TEST(PipelineFuzz, OddSymbolWidthsRoundTrip)
{
    Rng rng(999);
    // m = 3 is excluded: a 7-column unit cannot hold even the bundle
    // directory.
    for (unsigned m : { 5u, 7u, 9u }) {
        StorageConfig cfg;
        cfg.symbolBits = m;
        cfg.rows = 9; // odd rows x odd bits exercises bit padding
        cfg.paritySymbols = std::max<size_t>(2, cfg.codewordLen() / 5);
        cfg.primerLen = 6;
        cfg.validate();

        FileBundle bundle;
        std::vector<uint8_t> data(cfg.capacityBytes() / 2);
        for (auto &b : data)
            b = uint8_t(rng.next());
        bundle.add("odd.bin", std::move(data));

        for (LayoutScheme scheme : { LayoutScheme::Baseline,
                                     LayoutScheme::Gini,
                                     LayoutScheme::DnaMapper }) {
            UnitEncoder enc(cfg, scheme);
            UnitDecoder dec(cfg, scheme);
            auto unit = enc.encode(bundle);
            std::vector<std::vector<Strand>> clusters;
            for (const auto &s : unit.strands)
                clusters.emplace_back(2, s);
            auto result = dec.decode(clusters);
            ASSERT_TRUE(result.exact)
                << "m=" << m << " " << layoutSchemeName(scheme);
            EXPECT_EQ(result.bundle.file(0).data,
                      bundle.file(0).data);
        }
    }
}

} // namespace
} // namespace dnastore
