#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "media/huffman.hh"
#include "util/rng.hh"

namespace dnastore {
namespace {

/** Code length of @p symbol, in bits: what decoding it consumes. */
int
codeLength(const HuffmanCode &code, size_t symbol)
{
    BitWriter w;
    code.encode(w, symbol);
    const std::vector<uint8_t> bytes = w.take();
    BitReader r(bytes);
    EXPECT_EQ(code.decode(r), int(symbol));
    return int(r.bitPosition());
}

TEST(Huffman, RejectsDegenerateAlphabet)
{
    EXPECT_THROW(HuffmanCode({}), std::invalid_argument);
    EXPECT_THROW(HuffmanCode({ 5 }), std::invalid_argument);
}

TEST(Huffman, TwoSymbolsGetOneBitEach)
{
    HuffmanCode code({ 1, 1000 });
    EXPECT_EQ(codeLength(code, 0), 1);
    EXPECT_EQ(codeLength(code, 1), 1);
}

TEST(Huffman, FrequentSymbolsGetShorterCodes)
{
    HuffmanCode code({ 1000, 100, 10, 1 });
    EXPECT_LE(codeLength(code, 0), codeLength(code, 1));
    EXPECT_LE(codeLength(code, 1), codeLength(code, 2));
    EXPECT_LE(codeLength(code, 2), codeLength(code, 3));
}

TEST(Huffman, KraftEqualityHolds)
{
    // A Huffman code is a complete prefix code: sum 2^-len == 1.
    const std::vector<uint64_t> freqs = { 37, 1, 12, 9, 255,
                                          255, 4, 4, 4, 90 };
    HuffmanCode code(freqs);
    double kraft = 0.0;
    for (size_t s = 0; s < freqs.size(); ++s)
        kraft += std::pow(2.0, -codeLength(code, s));
    EXPECT_NEAR(kraft, 1.0, 1e-12);
}

TEST(Huffman, EncodeDecodeRoundTrip)
{
    Rng rng(1);
    std::vector<uint64_t> freqs(40);
    for (auto &f : freqs)
        f = 1 + rng.nextBelow(10000);
    HuffmanCode code(freqs);

    std::vector<size_t> symbols(2000);
    for (auto &s : symbols)
        s = size_t(rng.nextBelow(40));
    BitWriter w;
    for (size_t s : symbols)
        code.encode(w, s);
    auto bytes = w.take();

    BitReader r(bytes);
    for (size_t s : symbols) {
        int decoded = code.decode(r);
        ASSERT_EQ(decoded, int(s));
    }
}

TEST(Huffman, ZeroFrequencySymbolsRemainEncodable)
{
    HuffmanCode code({ 1000, 0, 0, 500 });
    BitWriter w;
    code.encode(w, 1);
    code.encode(w, 2);
    auto bytes = w.take();
    BitReader r(bytes);
    EXPECT_EQ(code.decode(r), 1);
    EXPECT_EQ(code.decode(r), 2);
}

TEST(Huffman, TruncatedStreamReturnsError)
{
    HuffmanCode code({ 1, 1, 1, 1, 1, 1, 1 });
    std::vector<uint8_t> empty;
    BitReader r(empty);
    EXPECT_EQ(code.decode(r), -1);
}

TEST(Huffman, SkewedDistributionStillDecodes)
{
    // Heavily skewed frequencies make deep trees; decoding must still
    // work at every depth.
    std::vector<uint64_t> freqs;
    uint64_t f = 1;
    for (int i = 0; i < 24; ++i) {
        freqs.push_back(f);
        f = f * 2 + 1;
    }
    HuffmanCode code(freqs);
    BitWriter w;
    for (size_t s = 0; s < freqs.size(); ++s)
        code.encode(w, s);
    auto bytes = w.take();
    BitReader r(bytes);
    for (size_t s = 0; s < freqs.size(); ++s)
        ASSERT_EQ(code.decode(r), int(s));
}

} // namespace
} // namespace dnastore
