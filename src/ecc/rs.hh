/**
 * @file
 * Reed-Solomon codec with full errors-and-erasures decoding.
 *
 * Systematic RS(n, k) over GF(2^m) with n = 2^m - 1, exactly the
 * construction of the paper's baseline storage architecture (Figure 1):
 * each codeword row holds M = k data symbols and E = n - k redundancy
 * symbols; the decoder corrects up to E erasures, or up to E/2 errors,
 * or any mix with (2 * errors + erasures) <= E.
 *
 * The remainder of d(x) x^E modulo the generator g(x) is long
 * division on split tables (Plank, Greenan and Miller, FAST'13): a
 * feedback symbol splits into ceil(m / 5) slices of b <= 5 bits, with
 * T[s][v] = (v << s b) g(x) mod x^E precomputed, so each data symbol
 * XORs ceil(m / b) E-symbol rows. The next feedback is taken before
 * the rows are stored; XOR is exact, so the AVX2 build of the loop
 * (simd::activeLevel()) and the baseline one give the same bits. It
 * gives encode() its parity, isCodeword() its check, and decode() the
 * remainder r(x) = c(x) mod g(x): g(alpha^j) = 0, so S_j = r(alpha^j),
 * an E-term sum (Lin and Costello, Error Control Coding). r = 0 is the
 * clean early-out, before any buffer copy. The other phases:
 *  - syndromes: a nonzero r_i adds alpha^(log r_i + i j) to S_j, an
 *    antilog of a running exponent, eight terms at a time with j inner;
 *  - erasure-modified Berlekamp-Massey gives the error locator, and
 *    Psi = locator * erasure locator;
 *  - Chien search for Psi's roots in the log domain, one antilog per
 *    nonzero term per degree (skipped when there are only erasures);
 *  - Forney with Omega = S Psi mod x^E computed below deg Psi only;
 *  - a check that updates the syndromes with the applied values
 *    (again one antilog per term) and needs them all zero.
 * The Omega bound is exact. Psi = prod (1 - X_k x) over its v located
 * X_k; if values e_k there pass the check, S_j = sum e_k X_k^j for
 * j = 1..E, so S Psi = sum e_k X_k prod_{l != k} (1 - X_l x) mod x^E
 * has degree < v. So a full Omega of degree < v equals the truncated
 * one, and with a higher coefficient no values pass: both fail.
 * Working buffers live in an RsScratch that callers (or a thread-local
 * default) reuse, so steady-state decodes perform no heap allocation.
 */

#ifndef DNASTORE_ECC_RS_HH
#define DNASTORE_ECC_RS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ecc/gf.hh"

namespace dnastore {

/** Outcome of a codeword decode. */
struct RsDecodeResult
{
    bool success = false;          //!< True if decoding converged.
    size_t errorsCorrected = 0;    //!< Unknown-location errors fixed.
    size_t erasuresCorrected = 0;  //!< Erasure positions repaired.
};

/**
 * Reusable working buffers for ReedSolomon::decode. A default-
 * constructed scratch works for any code; buffers grow to the high-
 * water mark of the codes it serves and are then reused allocation-
 * free. Not thread-safe: use one scratch per thread.
 */
struct RsScratch
{
    std::vector<uint16_t> rem;
    std::vector<uint32_t> syn, work, gamma, modified, lambda, prev, tmp,
        psi, omega, psiDeriv, termExp, termStep;
    std::vector<size_t> badPositions;
    std::vector<uint32_t> badX;
};

/**
 * Systematic Reed-Solomon codec over GF(2^m).
 *
 * Codewords are laid out data-first: positions [0, k) hold the data
 * symbols, positions [k, n) the parity symbols. Every symbol must be a
 * field element (< 2^m).
 */
class ReedSolomon
{
  public:
    /**
     * @param gf    Field; codewords have n = gf.order() symbols.
     * @param n_par Number of parity symbols E (0 < E < n).
     */
    ReedSolomon(const GaloisField &gf, size_t n_par);

    /** Codeword length n. */
    size_t n() const { return n_; }

    /** Data symbols per codeword k = n - E. */
    size_t k() const { return n_ - nPar_; }

    /**
     * Encode @p data (k symbols) into a codeword of n symbols.
     *
     * @throws std::invalid_argument if data.size() != k() or a
     *         symbol is outside the field (>= 2^m).
     */
    std::vector<uint32_t> encode(const std::vector<uint32_t> &data) const;

    /**
     * Encode in place: @p word holds the k data symbols and gets the
     * E parity symbols appended, so a buffer reused across codewords
     * (capacity n) encodes without allocating. Throws as encode().
     */
    void appendParity(std::vector<uint32_t> &word) const;

    /**
     * Decode a codeword in place.
     *
     * @param codeword  n received symbols; corrected on success.
     * @param erasures  Known-bad positions, each in [0, n) and
     *                  distinct; their symbol values are ignored.
     * @return Decode status and correction counts. On failure,
     *         including a malformed erasure list or a symbol outside
     *         the field (>= 2^m) at a position not erased, the
     *         codeword is left unmodified.
     */
    RsDecodeResult decode(std::vector<uint32_t> &codeword,
                          const std::vector<size_t> &erasures = {}) const;

    /**
     * Decode with caller-provided scratch buffers (allocation-free
     * once the scratch is warm). The two-argument overload uses a
     * thread-local scratch and is equivalent.
     */
    RsDecodeResult decode(std::vector<uint32_t> &codeword,
                          const std::vector<size_t> &erasures,
                          RsScratch &scratch) const;

    /** True if @p codeword is n field symbols with zero remainder. */
    bool isCodeword(const std::vector<uint32_t> &codeword) const;

    /** The field this code is defined over. */
    const GaloisField &field() const { return gf_; }

  private:
    /**
     * d(x) x^E mod g(x) for the k data symbols at @p data, into
     * rem[0, E), low-first; @p rem is resized to n as working space.
     */
    void dataRemainder(const uint32_t *data,
                       std::vector<uint16_t> &rem) const;

    const GaloisField &gf_;
    size_t n_;
    size_t nPar_;
    unsigned slices_;              // feedback slices, ceil(m / 5)
    unsigned sliceBits_;           // b = ceil(m / slices) <= 5
    std::vector<uint16_t> table_;  // [slice][value][E]: (value << slice b) g
};

} // namespace dnastore

#endif // DNASTORE_ECC_RS_HH
