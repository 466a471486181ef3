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
 * One kernel does the heavy lifting: the remainder of the data part
 * d(x) x^E modulo the generator g(x), by long division on split
 * tables (Plank, Greenan and Miller, FAST'13). The constructor splits
 * a feedback symbol into ceil(m / 5) slices of b <= 5 bits and
 * precomputes T[s][v] = (v << s b) g(x) mod x^E for every slice value,
 * so each data symbol costs ceil(m / b) XORed E-symbol rows in a plain
 * loop the compiler vectorizes. XOR is exact, so every SIMD tier gives
 * the same bits. The kernel serves three callers:
 *
 *  - encode(): the parity is the remainder itself;
 *  - isCodeword(): c(x) = d(x) x^E + p(x) is a codeword iff the
 *    remainder equals the received parity;
 *  - decode(): r(x) = remainder XOR parity is c(x) mod g(x), and since
 *    g(alpha^j) = 0 the syndromes are S_j = c(alpha^j) = r(alpha^j),
 *    an E-coefficient evaluation instead of an n-coefficient one
 *    (Lin and Costello, Error Control Coding). r = 0 is the clean
 *    early-out, before any buffer copy.
 *
 * The rest of decoding is classical: erasure-modified Berlekamp-
 * Massey, Chien search, Forney's algorithm. Erasure-only decodes skip
 * the Chien search (the bad positions are the erasures); the
 * post-correction check updates the syndromes incrementally from the
 * applied error values, O(bad * E); all working buffers live in an
 * RsScratch that callers (or a thread-local default) reuse, so
 * steady-state decodes perform no heap allocation.
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
        psi, omega, psiDeriv, chien, evals, termExp, termDeg;
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

    /** Syndromes S_j = r(alpha^j), j = 1..E, of a remainder r. */
    void syndromesInto(const uint16_t *r, RsScratch &s) const;

    const GaloisField &gf_;
    size_t n_;
    size_t nPar_;
    unsigned slices_;              // feedback slices, ceil(m / 5)
    unsigned sliceBits_;           // b = ceil(m / slices) <= 5
    std::vector<uint16_t> table_;  // [slice][value][E]: (value << slice b) g
};

} // namespace dnastore

#endif // DNASTORE_ECC_RS_HH
