#include <gtest/gtest.h>

#include "util/bitio.hh"
#include "util/rng.hh"

namespace dnastore {
namespace {

TEST(BitWriter, WritesMsbFirst)
{
    BitWriter w;
    w.writeBits(0b1011, 4);
    w.writeBits(0b0010, 4);
    auto bytes = w.take();
    ASSERT_EQ(bytes.size(), 1u);
    EXPECT_EQ(bytes[0], 0b10110010);
}

TEST(BitWriter, AlignToBytePadsWithZeros)
{
    BitWriter w;
    w.writeBits(0b101, 3);
    w.alignToByte();
    auto bytes = w.take();
    ASSERT_EQ(bytes.size(), 1u);
    EXPECT_EQ(bytes[0], 0b10100000);
}

TEST(BitReader, ReadsBackWhatWasWritten)
{
    BitWriter w;
    w.writeBits(0x3, 2);
    w.writeBits(0x15, 5);
    w.writeBits(0x1ff, 9);
    auto bytes = w.take();

    BitReader r(bytes);
    EXPECT_EQ(r.readBits(2), 0x3u);
    EXPECT_EQ(r.readBits(5), 0x15u);
    EXPECT_EQ(r.readBits(9), 0x1ffu);
    EXPECT_FALSE(r.exhausted());
}

TEST(BitReader, ExhaustionIsSticky)
{
    std::vector<uint8_t> one{ 0xff };
    BitReader r(one);
    EXPECT_EQ(r.readBits(8), 0xffu);
    EXPECT_FALSE(r.exhausted());
    EXPECT_EQ(r.readBit(), 0);
    EXPECT_TRUE(r.exhausted());
}

TEST(BitReader, AlignToByteSkipsPartialByte)
{
    std::vector<uint8_t> data{ 0xab, 0xcd };
    BitReader r(data);
    r.readBits(3);
    r.alignToByte();
    EXPECT_EQ(r.bitPosition(), 8u);
    EXPECT_EQ(r.readBits(8), 0xcdu);
}

TEST(BitIo, RoundTripRandomStreams)
{
    Rng rng(99);
    for (int iter = 0; iter < 50; ++iter) {
        std::vector<std::pair<uint32_t, int>> fields;
        BitWriter w;
        int total_bits = 0;
        for (int i = 0; i < 100; ++i) {
            int count = 1 + int(rng.nextBelow(24));
            uint32_t value = uint32_t(rng.next()) &
                ((count == 32) ? ~0u : ((1u << count) - 1));
            fields.emplace_back(value, count);
            w.writeBits(value, count);
            total_bits += count;
        }
        auto bytes = w.take();
        EXPECT_EQ(bytes.size(), size_t((total_bits + 7) / 8));
        BitReader r(bytes);
        for (auto [value, count] : fields)
            EXPECT_EQ(r.readBits(count), value);
        EXPECT_FALSE(r.exhausted());
    }
}

TEST(BitIo, FlipGetSetBit)
{
    std::vector<uint8_t> buf(4, 0);
    setBit(buf, 0, 1);
    setBit(buf, 9, 1);
    setBit(buf, 31, 1);
    EXPECT_EQ(getBit(buf, 0), 1);
    EXPECT_EQ(getBit(buf, 9), 1);
    EXPECT_EQ(getBit(buf, 31), 1);
    EXPECT_EQ(getBit(buf, 1), 0);
    EXPECT_EQ(buf[0], 0x80);
    EXPECT_EQ(buf[1], 0x40);

    flipBit(buf, 9);
    EXPECT_EQ(getBit(buf, 9), 0);
    flipBit(buf, 9);
    EXPECT_EQ(getBit(buf, 9), 1);

    setBit(buf, 0, 0);
    EXPECT_EQ(getBit(buf, 0), 0);
}

} // namespace
} // namespace dnastore
