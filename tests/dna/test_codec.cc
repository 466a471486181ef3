#include <gtest/gtest.h>

#include "dna/codec.hh"
#include "util/rng.hh"

namespace dnastore {
namespace {

TEST(DnaCodec, UintRoundTrip)
{
    Rng rng(2);
    for (int bits = 2; bits <= 64; bits += 2) {
        uint64_t mask = bits == 64 ? ~0ULL : ((1ULL << bits) - 1);
        uint64_t v = rng.next() & mask;
        Strand s;
        appendUint(s, v, bits);
        EXPECT_EQ(s.size(), size_t(bits) / 2);
        EXPECT_EQ(decodeUint(s, 0, bits), v);
    }
}

TEST(DnaCodec, UintAtOffset)
{
    Strand s;
    appendUint(s, 0x0, 8);
    appendUint(s, 0xabcd, 16);
    EXPECT_EQ(decodeUint(s, 4, 16), 0xabcdu);
}

TEST(DnaCodec, UintOutOfRangeReadsZero)
{
    Strand s;
    appendUint(s, 0xff, 8);
    // Reading past the end treats missing bases as A (zero bits).
    EXPECT_EQ(decodeUint(s, 2, 8), 0xf0u);
}

TEST(DnaCodec, OddBitCountRejected)
{
    Strand s;
    EXPECT_THROW(appendUint(s, 1, 3), std::invalid_argument);
    EXPECT_THROW(decodeUint(s, 0, 5), std::invalid_argument);
}

} // namespace
} // namespace dnastore
