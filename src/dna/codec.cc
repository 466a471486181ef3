#include "dna/codec.hh"

#include <stdexcept>

namespace dnastore {

void
appendUint(Strand &out, uint64_t value, int n_bits)
{
    if (n_bits % 2 != 0)
        throw std::invalid_argument("appendUint: n_bits must be even");
    for (int shift = n_bits - 2; shift >= 0; shift -= 2)
        out.push_back(baseFromBits(unsigned(value >> shift)));
}

uint64_t
decodeUint(const Strand &s, size_t base_offset, int n_bits)
{
    if (n_bits % 2 != 0)
        throw std::invalid_argument("decodeUint: n_bits must be even");
    uint64_t v = 0;
    for (int i = 0; i < n_bits / 2; ++i) {
        size_t idx = base_offset + size_t(i);
        unsigned bits = idx < s.size() ? bitsFromBase(s[idx]) : 0u;
        v = (v << 2) | bits;
    }
    return v;
}

} // namespace dnastore
