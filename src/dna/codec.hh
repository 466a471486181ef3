/**
 * @file
 * Binary <-> DNA base codecs.
 *
 * The paper assumes the maximum-density direct mapping of two bits per
 * base (00=A, 01=C, 10=G, 11=T); these helpers pack fixed-width
 * integers into base sequences and back.
 */

#ifndef DNASTORE_DNA_CODEC_HH
#define DNASTORE_DNA_CODEC_HH

#include <cstddef>
#include <cstdint>

#include "dna/strand.hh"

namespace dnastore {

/**
 * Decode @p n_bits bits (n_bits/2 bases) starting at base offset
 * @p base_offset of @p s into an unsigned integer (MSB-first).
 * Out-of-range bases read as zero.
 */
uint64_t decodeUint(const Strand &s, size_t base_offset, int n_bits);

/**
 * Append the low @p n_bits bits of @p value (must be even) to @p out
 * as bases, MSB-first.
 */
void appendUint(Strand &out, uint64_t value, int n_bits);

} // namespace dnastore

#endif // DNASTORE_DNA_CODEC_HH
