/**
 * @file
 * Galois field GF(2^m) arithmetic, m = 2..16, table based.
 *
 * The paper's storage architecture uses Reed-Solomon codes over
 * GF(2^16) (65535-symbol codewords); the benchmark-scale configuration
 * uses GF(2^10). This class supports the whole range with log/antilog
 * tables built from standard primitive polynomials.
 */

#ifndef DNASTORE_ECC_GF_HH
#define DNASTORE_ECC_GF_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dnastore {

/** Finite field GF(2^m) with multiplication via log/antilog tables. */
class GaloisField
{
  public:
    /**
     * Construct GF(2^m).
     *
     * @param m Field degree in [2, 16].
     * @throws std::invalid_argument for unsupported degrees.
     */
    explicit GaloisField(unsigned m);

    /** Field degree m (bits per symbol). */
    unsigned degree() const { return m_; }

    /** Number of nonzero elements, 2^m - 1 (= max codeword length). */
    uint32_t order() const { return n_; }

    /** Field size 2^m. */
    uint32_t size() const { return n_ + 1; }

    /** Add (= subtract) two elements. */
    static uint32_t add(uint32_t a, uint32_t b) { return a ^ b; }

    /** Multiply two elements. */
    uint32_t
    mul(uint32_t a, uint32_t b) const
    {
        if (a == 0 || b == 0)
            return 0;
        return exp_[log_[a] + log_[b]];
    }

    /** Divide a by b; b must be nonzero. */
    uint32_t div(uint32_t a, uint32_t b) const;

    /** Multiplicative inverse of a nonzero element. */
    uint32_t inverse(uint32_t a) const;

    /** alpha^e for the canonical primitive element alpha. */
    uint32_t
    alphaPow(uint64_t e) const
    {
        return exp_[e % n_];
    }

    /**
     * Raw log table (size 2^m; entry 0 is unused). Logs fit uint16_t
     * for every supported degree, which halves the table footprint and
     * keeps the m=16 hot set inside L2. Hot loops that have already
     * excluded zero operands can fuse lookups directly:
     * `exp[log[a] + log[b]]` is mul(a, b) for nonzero a, b.
     */
    const uint16_t *logData() const { return log_.data(); }

    /** Raw antilog table, size 2n: expData()[i] = alpha^(i mod n). */
    const uint16_t *expData() const { return exp_.data(); }

  private:
    unsigned m_;
    uint32_t n_;
    uint32_t poly_;
    std::vector<uint16_t> exp_; // exp_[i] = alpha^i, length 2n
    std::vector<uint16_t> log_; // log_[a] = i with alpha^i = a
};

} // namespace dnastore

#endif // DNASTORE_ECC_GF_HH
