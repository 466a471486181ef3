/**
 * CRC-32 (reflected IEEE): the published check value, incremental
 * equivalence, and the sensitivity properties the `.dnapool` section
 * guards rely on.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/crc32.hh"

using namespace dnastore;

namespace {

uint32_t
crcOfString(const std::string &s)
{
    return crc32(reinterpret_cast<const uint8_t *>(s.data()),
                 s.size());
}

} // namespace

TEST(Crc32, PublishedCheckValue)
{
    // The canonical CRC-32/ISO-HDLC check value: CRC("123456789").
    EXPECT_EQ(crcOfString("123456789"), 0xCBF43926u);
}

TEST(Crc32, EmptyInputIsZero)
{
    EXPECT_EQ(crc32(nullptr, 0), 0u);
    EXPECT_EQ(crc32(std::vector<uint8_t>{}), 0u);
}

TEST(Crc32, KnownVectors)
{
    EXPECT_EQ(crcOfString("a"), 0xE8B7BE43u);
    EXPECT_EQ(crcOfString("abc"), 0x352441C2u);
    EXPECT_EQ(crcOfString("The quick brown fox jumps over the lazy dog"),
              0x414FA339u);
}

TEST(Crc32, IncrementalMatchesOneShot)
{
    // Section checksums are computed over id + length + payload in
    // one pass; the incremental form must agree for any split.
    std::vector<uint8_t> data(257);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = uint8_t(i * 7 + 13);
    const uint32_t one_shot = crc32(data);
    for (size_t split : { size_t(0), size_t(1), size_t(128),
                          data.size() - 1, data.size() }) {
        uint32_t crc = crc32(data.data(), split);
        crc = crc32(data.data() + split, data.size() - split, crc);
        EXPECT_EQ(crc, one_shot) << "split at " << split;
    }
}

TEST(Crc32, EverySingleBitFlipChangesTheChecksum)
{
    // The corruption-detection guarantee the pool format leans on:
    // CRC-32 detects ALL single-bit errors.
    std::vector<uint8_t> data(64);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = uint8_t(i * 31 + 5);
    const uint32_t reference = crc32(data);
    for (size_t byte = 0; byte < data.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::vector<uint8_t> flipped = data;
            flipped[byte] ^= uint8_t(1 << bit);
            EXPECT_NE(crc32(flipped), reference)
                << "byte " << byte << " bit " << bit;
        }
    }
}

TEST(Crc32, SlicedMatchesBytewiseReference)
{
    // crc32 steps eight bytes at a time through eight tables; the
    // plain bytewise loop over the one reflected table must give the
    // same CRC at every length (tails 0-7 included), every start
    // alignment, and from a chained (nonzero) initial CRC.
    uint32_t table[256];
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    auto reference = [&table](const uint8_t *p, size_t n, uint32_t crc) {
        uint32_t c = crc ^ 0xFFFFFFFFu;
        for (size_t i = 0; i < n; ++i)
            c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
        return c ^ 0xFFFFFFFFu;
    };
    std::vector<uint8_t> data(1024 + 8);
    uint32_t x = 0x9E3779B9u;
    for (uint8_t &b : data) {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        b = uint8_t(x >> 24);
    }
    uint32_t chained = 0;
    for (size_t offset = 0; offset < 8; ++offset) {
        for (size_t n = 0; n <= 1024; ++n) {
            const uint8_t *p = data.data() + offset;
            ASSERT_EQ(crc32(p, n), reference(p, n, 0))
                << "offset " << offset << " length " << n;
            const uint32_t next = crc32(p, n, chained);
            ASSERT_EQ(next, reference(p, n, chained))
                << "offset " << offset << " length " << n << " chained";
            chained = next;
        }
    }
}
