/**
 * @file
 * Canonical Huffman coding for the entropy stage of the image codec.
 *
 * Codes are built deterministically from static frequency tables that
 * both the encoder and decoder construct independently, so no code
 * table travels in the file. Like JPEG's entropy coder, the stream is
 * self-synchronizing only by luck: a single flipped bit usually
 * desynchronizes every symbol after it — which is precisely the
 * property the paper's bit-priority heuristic exploits (section 5.3).
 */

#ifndef DNASTORE_MEDIA_HUFFMAN_HH
#define DNASTORE_MEDIA_HUFFMAN_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/bitio.hh"

namespace dnastore {

/** A canonical Huffman code over symbols [0, n). */
class HuffmanCode
{
  public:
    /**
     * Build the code for the given symbol frequencies.
     *
     * @param freqs One positive weight per symbol (zero-frequency
     *              symbols still get a code so any symbol remains
     *              encodable); at least two symbols required.
     */
    explicit HuffmanCode(const std::vector<uint64_t> &freqs);

    /** Append the code for @p symbol to the writer. */
    void encode(BitWriter &w, size_t symbol) const;

    /**
     * Decode the next symbol from the reader.
     *
     * @retval The symbol, or -1 if the bits do not form a valid code
     *         (including running off the end of the stream).
     */
    int decode(BitReader &r) const;

  private:
    std::vector<int> lengths_;           // per-symbol code length
    std::vector<uint32_t> codes_;        // per-symbol canonical code
    // Canonical decoding tables, indexed by code length.
    std::vector<uint32_t> firstCode_;    // smallest code of each length
    std::vector<uint32_t> firstIndex_;   // index of that code
    std::vector<uint32_t> countAtLen_;   // number of codes of length
    std::vector<uint32_t> symbolByRank_; // symbols sorted canonically
    int maxLen_ = 0;
};

} // namespace dnastore

#endif // DNASTORE_MEDIA_HUFFMAN_HH
