#include "util/crc32.hh"

#include <array>

namespace dnastore {

namespace {

using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

/**
 * The reflected IEEE tables for slicing-by-8, built once (thread-safe
 * static init): t[0] is the bytewise table, and t[k][i] is the CRC
 * of byte i followed by k zero bytes.
 */
const CrcTables &
crcTables()
{
    static const CrcTables tables = [] {
        CrcTables t{};
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[0][i] = c;
        }
        for (size_t k = 1; k < 8; ++k)
            for (uint32_t i = 0; i < 256; ++i)
                t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
        return t;
    }();
    return tables;
}

/** Little-endian 32-bit load; compilers fuse it into one move. */
inline uint32_t
load32(const uint8_t *p)
{
    return uint32_t(p[0]) | uint32_t(p[1]) << 8 | uint32_t(p[2]) << 16 |
        uint32_t(p[3]) << 24;
}

} // namespace

uint32_t
crc32(const uint8_t *data, size_t n, uint32_t crc)
{
    const CrcTables &t = crcTables();
    uint32_t c = crc ^ 0xFFFFFFFFu;
    // Eight bytes per step through eight independent table lookups,
    // then the tail bytewise; both give the bytewise loop's CRC.
    for (; n >= 8; n -= 8, data += 8) {
        const uint32_t lo = c ^ load32(data), hi = load32(data + 4);
        c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
            t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
            t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; n > 0; --n, ++data)
        c = t[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

uint32_t
crc32(const std::vector<uint8_t> &data, uint32_t crc)
{
    return crc32(data.data(), data.size(), crc);
}

} // namespace dnastore
