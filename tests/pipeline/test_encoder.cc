#include <gtest/gtest.h>

#include "dna/codec.hh"
#include "dna/primer.hh"
#include "ecc/gf.hh"
#include "ecc/rs.hh"
#include "pipeline/encoder.hh"
#include "util/bitio.hh"
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
        size_t take = std::min(remaining, size_t(200 + rng.nextBelow(300)));
        std::vector<uint8_t> data(take);
        for (auto &x : data)
            x = uint8_t(rng.next());
        b.add("f" + std::to_string(i++), std::move(data));
        remaining -= take;
    }
    return b;
}

class EncoderSchemes : public ::testing::TestWithParam<LayoutScheme> {};

TEST_P(EncoderSchemes, ProducesOneStrandPerColumn)
{
    auto cfg = StorageConfig::tinyTest();
    UnitEncoder enc(cfg, GetParam());
    auto unit = enc.encode(randomBundle(cfg.capacityBytes() / 2, 1));
    EXPECT_EQ(unit.strands.size(), cfg.codewordLen());
    for (const auto &s : unit.strands)
        EXPECT_EQ(s.size(), cfg.strandLen());
}

TEST_P(EncoderSchemes, EveryCodewordIsValidReedSolomon)
{
    auto cfg = StorageConfig::tinyTest();
    UnitEncoder enc(cfg, GetParam());
    auto unit = enc.encode(randomBundle(cfg.capacityBytes() / 2, 2));
    GaloisField gf(cfg.symbolBits);
    ReedSolomon rs(gf, cfg.paritySymbols);
    auto map = makeCodewordMap(cfg, GetParam());
    for (size_t j = 0; j < map->codewords(); ++j)
        EXPECT_TRUE(rs.isCodeword(map->gather(unit.matrix, j)))
            << "codeword " << j;
}

TEST_P(EncoderSchemes, StrandIndexFieldEncodesColumnNumber)
{
    auto cfg = StorageConfig::tinyTest();
    UnitEncoder enc(cfg, GetParam());
    auto unit = enc.encode(randomBundle(1000, 3));
    for (size_t col : { size_t(0), size_t(5), cfg.codewordLen() - 1 }) {
        uint64_t idx = decodeUint(unit.strands[col], cfg.primerLen,
                                  int(cfg.indexBits()));
        EXPECT_EQ(idx, col);
    }
}

TEST_P(EncoderSchemes, RejectsOversizedBundle)
{
    auto cfg = StorageConfig::tinyTest();
    UnitEncoder enc(cfg, GetParam());
    EXPECT_THROW(enc.encode(randomBundle(cfg.capacityBytes() + 100, 4)),
                 std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, EncoderSchemes,
                         ::testing::Values(LayoutScheme::Baseline,
                                           LayoutScheme::Gini,
                                           LayoutScheme::DnaMapper));

TEST(UnitEncoder, BaselineAndGiniShareDataPlacement)
{
    // Gini only re-threads codewords; the data region layout matches
    // the baseline, so the data columns must be identical.
    auto cfg = StorageConfig::tinyTest();
    auto bundle = randomBundle(2000, 5);
    auto base = UnitEncoder(cfg, LayoutScheme::Baseline).encode(bundle);
    auto gini = UnitEncoder(cfg, LayoutScheme::Gini).encode(bundle);
    for (size_t r = 0; r < cfg.rows; ++r)
        for (size_t c = 0; c < cfg.dataCols(); ++c)
            ASSERT_EQ(base.matrix.at(r, c), gini.matrix.at(r, c));
    // But the parity region differs (different codeword threading).
    size_t parity_diff = 0;
    for (size_t r = 0; r < cfg.rows; ++r)
        for (size_t c = cfg.dataCols(); c < cfg.codewordLen(); ++c)
            parity_diff += (base.matrix.at(r, c) != gini.matrix.at(r, c));
    EXPECT_GT(parity_diff, 0u);
}

TEST(UnitEncoder, DnaMapperPlacesDirectoryInMostReliableRow)
{
    // The directory prefix (the highest-priority bits) must land in
    // the last matrix row, the most reliable data location.
    auto cfg = StorageConfig::tinyTest();
    auto bundle = randomBundle(2000, 6);
    auto unit = UnitEncoder(cfg, LayoutScheme::DnaMapper).encode(bundle);
    auto stream = bundle.serializePriority();
    // First symbols of the priority stream.
    GaloisField gf(cfg.symbolBits);
    UnitEncoder enc(cfg, LayoutScheme::DnaMapper);
    auto symbols = enc.packSymbols(stream);
    for (size_t c = 0; c < cfg.dataCols(); ++c)
        EXPECT_EQ(unit.matrix.at(cfg.rows - 1, c), symbols[c]);
}

TEST(UnitEncoder, PackSymbolsSplitsBitsMsbFirst)
{
    auto cfg = StorageConfig::tinyTest(); // 8-bit symbols
    UnitEncoder enc(cfg, LayoutScheme::Baseline);
    auto symbols = enc.packSymbols({ 0xab, 0xcd, 0xef });
    EXPECT_EQ(symbols[0], 0xabu);
    EXPECT_EQ(symbols[1], 0xcdu);
    EXPECT_EQ(symbols[2], 0xefu);
    EXPECT_EQ(symbols[3], 0u); // padding
}

TEST(UnitEncoder, StrandsCarryColumnBitsMsbFirstWithZeroPad)
{
    // Each strand is primer + index + the column's symbols as one
    // MSB-first bit string, two bits per base + primer. When
    // rows x symbolBits is odd, the last payload base carries one
    // symbol bit and a zero pad, as a BitReader reading past the end
    // of the packed column gives.
    StorageConfig odd5 = StorageConfig::tinyTest();
    odd5.symbolBits = 5;
    odd5.rows = 7;
    odd5.paritySymbols = 6;
    StorageConfig odd11 = StorageConfig::tinyTest();
    odd11.symbolBits = 11;
    odd11.rows = 5;
    odd11.paritySymbols = 300;
    for (const StorageConfig &cfg :
         { StorageConfig::tinyTest(), odd5, odd11 }) {
        UnitEncoder enc(cfg, LayoutScheme::Gini);
        auto unit = enc.encode(randomBundle(cfg.capacityBytes() / 2, 7));
        const PrimerPair primers =
            makePrimerPair(cfg.primerKey, cfg.primerLen);
        for (size_t col = 0; col < cfg.codewordLen(); ++col) {
            BitWriter w;
            for (size_t row = 0; row < cfg.rows; ++row)
                w.writeBits(unit.matrix.at(row, col), int(cfg.symbolBits));
            const std::vector<uint8_t> bytes = w.take();
            BitReader r(bytes);
            Strand want = primers.forward;
            appendUint(want, col, int(cfg.indexBits()));
            for (size_t b = 0; b < cfg.payloadBases(); ++b)
                want.push_back(baseFromBits(r.readBits(2)));
            want.insert(want.end(), primers.backward.begin(),
                        primers.backward.end());
            ASSERT_EQ(unit.strands[col], want)
                << cfg.symbolBits << "-bit symbols, column " << col;
        }
    }
}

} // namespace
} // namespace dnastore
