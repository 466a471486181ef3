#include "ecc/gf.hh"

#include <stdexcept>

namespace dnastore {

namespace {

/** Standard primitive polynomials for GF(2^m), m = 2..16. */
constexpr uint32_t kPrimitivePolys[17] = {
    0, 0,
    0x7,     // m=2:  x^2 + x + 1
    0xb,     // m=3:  x^3 + x + 1
    0x13,    // m=4:  x^4 + x + 1
    0x25,    // m=5:  x^5 + x^2 + 1
    0x43,    // m=6:  x^6 + x + 1
    0x89,    // m=7:  x^7 + x^3 + 1
    0x11d,   // m=8:  x^8 + x^4 + x^3 + x^2 + 1
    0x211,   // m=9:  x^9 + x^4 + 1
    0x409,   // m=10: x^10 + x^3 + 1
    0x805,   // m=11: x^11 + x^2 + 1
    0x1053,  // m=12: x^12 + x^6 + x^4 + x + 1
    0x201b,  // m=13: x^13 + x^4 + x^3 + x + 1
    0x4443,  // m=14: x^14 + x^10 + x^6 + x + 1
    0x8003,  // m=15: x^15 + x + 1
    0x1100b, // m=16: x^16 + x^12 + x^3 + x + 1
};

} // namespace

GaloisField::GaloisField(unsigned m)
    : m_(m)
{
    if (m < 2 || m > 16)
        throw std::invalid_argument("GaloisField: m must be in [2, 16]");
    n_ = (uint32_t(1) << m) - 1;
    poly_ = kPrimitivePolys[m];

    // uint16_t entries: element values and logs are both < 2^16 for
    // every supported degree, and the halved footprint keeps the
    // m=16 tables (256 KB exp + 128 KB log) resident in L2.
    exp_.resize(size_t(n_) * 2);
    log_.assign(size_t(n_) + 1, 0);
    uint32_t x = 1;
    for (uint32_t i = 0; i < n_; ++i) {
        exp_[i] = uint16_t(x);
        log_[x] = uint16_t(i);
        x <<= 1;
        if (x > n_)
            x ^= poly_;
    }
    // Duplicate the table so mul() can skip a modular reduction.
    for (uint32_t i = 0; i < n_; ++i)
        exp_[n_ + i] = exp_[i];
}

uint32_t
GaloisField::div(uint32_t a, uint32_t b) const
{
    if (b == 0)
        throw std::domain_error("GaloisField: division by zero");
    if (a == 0)
        return 0;
    return exp_[log_[a] + n_ - log_[b]];
}

uint32_t
GaloisField::inverse(uint32_t a) const
{
    if (a == 0)
        throw std::domain_error("GaloisField: inverse of zero");
    return exp_[n_ - log_[a]];
}

} // namespace dnastore
