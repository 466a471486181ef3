/**
 * @file
 * CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
 *
 * Guards every section of the durable `.dnapool` store format
 * (api/pool_file.hh): a single flipped bit anywhere in a section
 * changes its checksum, so truncation and bit-rot surface as a named
 * integrity failure instead of a silent mis-decode. Slicing-by-8:
 * eight 1 KiB tables built on first use, eight bytes per step (about
 * 5x the bytewise loop on x86-64, same CRC); incremental via the
 * running `crc` parameter so multi-buffer sections need no
 * concatenation.
 */

#ifndef DNASTORE_UTIL_CRC32_HH
#define DNASTORE_UTIL_CRC32_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dnastore {

/**
 * CRC-32 of @p data, continuing from @p crc (pass the previous call's
 * return value to checksum a logical stream in pieces; 0 to start).
 */
uint32_t crc32(const uint8_t *data, size_t n, uint32_t crc = 0);

/** Convenience overload over a whole buffer. */
uint32_t crc32(const std::vector<uint8_t> &data, uint32_t crc = 0);

} // namespace dnastore

#endif // DNASTORE_UTIL_CRC32_HH
