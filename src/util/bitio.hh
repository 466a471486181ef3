/**
 * @file
 * MSB-first bit-level readers and writers over byte buffers.
 *
 * Used by the DNA payload packers (2 bits per base) and by the
 * entropy-coded image format, both of which address sub-byte fields.
 */

#ifndef DNASTORE_UTIL_BITIO_HH
#define DNASTORE_UTIL_BITIO_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dnastore {

/** Appends bits MSB-first into a growable byte buffer. */
class BitWriter
{
  public:
    BitWriter() = default;

    /** Append the low @p count bits of @p value, most significant first. */
    void writeBits(uint32_t value, int count);

    /** Append a single bit. */
    void writeBit(bool bit);

    /** Pad with zero bits to the next byte boundary. */
    void alignToByte();

    /** Finish (pads to a byte) and return the accumulated buffer. */
    std::vector<uint8_t> take();

    /** Read-only view of the buffer; call alignToByte() first. */
    const std::vector<uint8_t> &bytes() const { return bytes_; }

  private:
    std::vector<uint8_t> bytes_;
    size_t bitCount_ = 0;
};

/** Reads bits MSB-first from a byte buffer. */
class BitReader
{
  public:
    explicit BitReader(const std::vector<uint8_t> &bytes)
        : bytes_(bytes.data()), bitLimit_(bytes.size() * 8)
    {}

    BitReader(const uint8_t *data, size_t n_bytes)
        : bytes_(data), bitLimit_(n_bytes * 8)
    {}

    /**
     * Read @p count bits (MSB-first).
     *
     * @retval The bits read; if the buffer is exhausted mid-read, the
     *         missing low bits are zero and exhausted() becomes true.
     */
    uint32_t readBits(int count);

    /** Read a single bit (0 past the end; sets exhausted()). */
    int readBit();

    /** Skip to the next byte boundary. */
    void alignToByte();

    /** True once a read ran past the end of the buffer. */
    bool exhausted() const { return exhausted_; }

    /** Bits consumed so far. */
    size_t bitPosition() const { return bitPos_; }

    /** Total number of bits available. */
    size_t bitLimit() const { return bitLimit_; }

  private:
    const uint8_t *bytes_;
    size_t bitLimit_;
    size_t bitPos_ = 0;
    bool exhausted_ = false;
};

/** Flip bit @p bit_index (MSB-first order) in @p bytes. */
void flipBit(std::vector<uint8_t> &bytes, size_t bit_index);

/** Get bit @p bit_index (MSB-first order) of @p bytes. */
int getBit(const std::vector<uint8_t> &bytes, size_t bit_index);

/** Set bit @p bit_index (MSB-first order) of @p bytes to @p value. */
void setBit(std::vector<uint8_t> &bytes, size_t bit_index, int value);

} // namespace dnastore

#endif // DNASTORE_UTIL_BITIO_HH
