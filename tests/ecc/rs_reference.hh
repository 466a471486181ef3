/**
 * @file
 * Frozen reference for the Reed-Solomon decoder: the split-table
 * remainder, the term-list syndromes, the value-domain Chien search,
 * the full-length error evaluator and the gf.mul verification update
 * the library shipped before its log-domain rewrite, kept verbatim in
 * behaviour so the differential suite can check the library decoder
 * against it (success flag, both counts and every codeword byte) on
 * every input, past capacity and malformed ones included. The one
 * addition is a counter of decodes that the final syndrome check
 * rejects, so the suite can show it reached that branch.
 */

#ifndef DNASTORE_TESTS_ECC_RS_REFERENCE_HH
#define DNASTORE_TESTS_ECC_RS_REFERENCE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "ecc/gf.hh"
#include "ecc/rs.hh"

namespace dnastore {
namespace rs_reference {

/** Polynomial product (coefficients low-order first) into @p out. */
inline void
polyMulInto(const GaloisField &gf, const std::vector<uint32_t> &a,
            const std::vector<uint32_t> &b, std::vector<uint32_t> &out)
{
    out.assign(a.size() + b.size() - 1, 0);
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i] == 0)
            continue;
        for (size_t j = 0; j < b.size(); ++j)
            out[i + j] ^= gf.mul(a[i], b[j]);
    }
}

/** Fused-Horner evaluation of a low-first polynomial at nonzero x. */
inline uint32_t
polyEvalAt(const GaloisField &gf, const uint32_t *p, size_t len,
           uint32_t x)
{
    const uint16_t *lg = gf.logData();
    const uint16_t *ex = gf.expData();
    const uint32_t lx = lg[x];
    uint32_t acc = 0;
    for (size_t i = len; i-- > 0;)
        acc = (acc ? ex[lg[acc] + lx] : 0) ^ p[i];
    return acc;
}

/** Widest feedback slice of the split tables. */
constexpr unsigned kMaxSliceBits = 5;

/** Split-table long division of d(x) x^E by g(x), S slices. */
template <unsigned S>
void
divideBySlices(const uint32_t *data, size_t k, size_t e,
               const uint16_t *table, unsigned bits, uint16_t *acc)
{
    const uint32_t mask = (uint32_t(1) << bits) - 1;
    for (size_t i = k; i-- > 0;) {
        const uint32_t f = data[i] ^ acc[i + e];
        if (f == 0)
            continue;
        const uint16_t *row[S];
        for (unsigned s = 0; s < S; ++s) {
            const size_t v = (f >> (s * bits)) & mask;
            row[s] = table + ((size_t(s) << bits) + v) * e;
        }
        uint16_t *w = acc + i;
        for (size_t j = 0; j < e; ++j) {
            uint16_t x = w[j];
            for (unsigned s = 0; s < S; ++s)
                x ^= row[s][j];
            w[j] = x;
        }
    }
}

/** True if every one of the @p n symbols at @p p is below 2^m. */
inline bool
inField(const uint32_t *p, size_t n, unsigned m)
{
    return std::accumulate(p, p + n, 0u, std::bit_or<uint32_t>()) >> m == 0;
}

/** The reference decoder for one RS(n, n - E) code over @p gf. */
class Decoder
{
  public:
    Decoder(const GaloisField &gf, size_t n_par)
        : gf_(gf), n_(gf.order()), nPar_(n_par),
          slices_((gf.degree() + kMaxSliceBits - 1) / kMaxSliceBits),
          sliceBits_((gf.degree() + slices_ - 1) / slices_)
    {
        if (n_par == 0 || n_par >= n_)
            throw std::invalid_argument("rs_reference: bad parity count");
        std::vector<uint32_t> generator = { 1 }, next;
        for (size_t i = 1; i <= nPar_; ++i) {
            polyMulInto(gf_, generator, { gf_.alphaPow(i), 1 }, next);
            generator.swap(next);
        }
        const size_t values = size_t(1) << sliceBits_;
        table_.assign(slices_ * values * nPar_, 0);
        for (unsigned s = 0; s < slices_; ++s) {
            for (size_t v = 1; v < values; ++v) {
                const uint32_t f = uint32_t(v) << (s * sliceBits_);
                if (f > n_)
                    continue;
                uint16_t *row = &table_[(s * values + v) * nPar_];
                for (size_t j = 0; j < nPar_; ++j)
                    row[j] = uint16_t(gf_.mul(f, generator[j]));
            }
        }
    }

    size_t k() const { return n_ - nPar_; }

    /**
     * Decodes so far that located a full set of bad positions and then
     * failed the post-correction syndrome check.
     */
    size_t verifyRejects() const { return verifyRejects_; }

    /** Decode in place, exactly as the library did before its rewrite. */
    RsDecodeResult
    decode(std::vector<uint32_t> &codeword,
           const std::vector<size_t> &erasures) const
    {
        Scratch &s = s_;
        RsDecodeResult result;
        if (codeword.size() != n_ || erasures.size() > nPar_)
            return result;
        s.badPositions.assign(erasures.begin(), erasures.end());
        std::sort(s.badPositions.begin(), s.badPositions.end());
        if (!s.badPositions.empty() &&
            (s.badPositions.back() >= n_ ||
             std::adjacent_find(s.badPositions.begin(),
                                s.badPositions.end()) !=
                 s.badPositions.end())) {
            return result;
        }

        const uint16_t *lg = gf_.logData();
        const uint16_t *ex = gf_.expData();
        auto degree_of = [this](size_t pos) {
            return pos < k() ? nPar_ + pos : pos - k();
        };

        const uint32_t *cw = codeword.data();
        if (!erasures.empty()) {
            s.work = codeword;
            for (size_t pos : erasures)
                s.work[pos] = 0;
            cw = s.work.data();
        }
        if (!inField(cw, n_, gf_.degree()))
            return result;
        dataRemainder(cw, s.rem);
        uint32_t nonzero = 0;
        for (size_t j = 0; j < nPar_; ++j) {
            s.rem[j] ^= uint16_t(cw[k() + j]);
            nonzero |= s.rem[j];
        }
        if (nonzero == 0) {
            if (!erasures.empty())
                codeword = s.work;
            result.success = true;
            result.erasuresCorrected = erasures.size();
            return result;
        }
        if (erasures.empty())
            s.work = codeword;
        syndromesInto(s.rem.data(), s);

        s.gamma.assign(1, 1);
        for (size_t pos : erasures) {
            uint32_t xk = gf_.alphaPow(degree_of(pos));
            s.gamma.push_back(0);
            for (size_t j = s.gamma.size() - 1; j >= 1; --j)
                s.gamma[j] ^= gf_.mul(xk, s.gamma[j - 1]);
        }

        s.modified.assign(nPar_, 0);
        for (size_t i = 0; i < nPar_; ++i) {
            uint32_t acc = 0;
            for (size_t j = 0; j <= i && j < s.gamma.size(); ++j)
                acc ^= gf_.mul(s.gamma[j], s.syn[i - j]);
            s.modified[i] = acc;
        }

        const size_t rho = erasures.size();
        s.lambda.assign(1, 1);
        s.prev.assign(1, 1);
        size_t l = 0;
        for (size_t r = 0; r + rho < nPar_; ++r) {
            uint32_t delta = s.modified[r + rho];
            for (size_t i = 1; i < s.lambda.size() && i <= r + rho; ++i)
                delta ^= gf_.mul(s.lambda[i], s.modified[r + rho - i]);
            s.prev.insert(s.prev.begin(), 0);
            if (delta != 0) {
                if (2 * l <= r) {
                    s.tmp = s.lambda;
                    if (s.prev.size() > s.lambda.size())
                        s.lambda.resize(s.prev.size(), 0);
                    for (size_t i = 0; i < s.prev.size(); ++i)
                        s.lambda[i] ^= gf_.mul(delta, s.prev[i]);
                    std::swap(s.prev, s.tmp);
                    uint32_t inv = gf_.inverse(delta);
                    for (auto &c : s.prev)
                        c = gf_.mul(c, inv);
                    l = r + 1 - l;
                } else {
                    if (s.prev.size() > s.lambda.size())
                        s.lambda.resize(s.prev.size(), 0);
                    for (size_t i = 0; i < s.prev.size(); ++i)
                        s.lambda[i] ^= gf_.mul(delta, s.prev[i]);
                }
            }
        }
        while (!s.lambda.empty() && s.lambda.back() == 0)
            s.lambda.pop_back();
        if (s.lambda.empty())
            return result;
        const size_t n_errors = s.lambda.size() - 1;
        if (2 * n_errors + rho > nPar_)
            return result;

        if (n_errors > 0)
            polyMulInto(gf_, s.lambda, s.gamma, s.psi);
        const std::vector<uint32_t> &psi = n_errors > 0 ? s.psi : s.gamma;
        const size_t psi_deg = psi.size() - 1;

        s.badX.clear();
        if (n_errors == 0) {
            for (size_t pos : s.badPositions)
                s.badX.push_back(gf_.alphaPow(degree_of(pos)));
        } else {
            s.badPositions.clear();
            s.chien.assign(psi.begin(), psi.end());
            for (size_t d = 0; d < n_; ++d) {
                uint32_t eval = 0;
                for (size_t i = 0; i <= psi_deg; ++i)
                    eval ^= s.chien[i];
                if (eval == 0) {
                    size_t pos = d < nPar_ ? k() + d : d - nPar_;
                    s.badPositions.push_back(pos);
                    s.badX.push_back(gf_.alphaPow(d));
                    if (s.badPositions.size() == psi_deg)
                        break;
                }
                for (size_t i = 1; i <= psi_deg; ++i) {
                    uint32_t t = s.chien[i];
                    if (t)
                        s.chien[i] = ex[lg[t] + n_ - uint32_t(i)];
                }
            }
        }
        if (s.badPositions.size() != psi_deg)
            return result;

        s.omega.assign(nPar_, 0);
        for (size_t i = 0; i < nPar_; ++i) {
            uint32_t acc = 0;
            for (size_t j = 0; j <= i && j < psi.size(); ++j)
                acc ^= gf_.mul(psi[j], s.syn[i - j]);
            s.omega[i] = acc;
        }
        s.psiDeriv.assign(psi_deg > 0 ? psi_deg : 1, 0);
        for (size_t i = 1; i < psi.size(); ++i)
            s.psiDeriv[i - 1] = (i & 1) ? psi[i] : 0;

        s.evals.resize(s.badPositions.size());
        for (size_t idx = 0; idx < s.badPositions.size(); ++idx) {
            uint32_t x_inv = gf_.inverse(s.badX[idx]);
            uint32_t num =
                polyEvalAt(gf_, s.omega.data(), s.omega.size(), x_inv);
            uint32_t den = polyEvalAt(gf_, s.psiDeriv.data(),
                                      s.psiDeriv.size(), x_inv);
            if (den == 0)
                return result;
            uint32_t e = gf_.div(num, den);
            s.evals[idx] = e;
            s.work[s.badPositions[idx]] ^= e;
        }

        for (size_t idx = 0; idx < s.badPositions.size(); ++idx) {
            const uint32_t e = s.evals[idx];
            if (e == 0)
                continue;
            const uint32_t x = s.badX[idx];
            uint32_t p = x;
            for (size_t j = 0; j < nPar_; ++j) {
                s.syn[j] ^= gf_.mul(e, p);
                p = gf_.mul(p, x);
            }
        }
        if (!std::all_of(s.syn.begin(), s.syn.end(),
                         [](uint32_t v) { return v == 0; })) {
            ++verifyRejects_;
            return result;
        }

        codeword = s.work;
        result.success = true;
        result.erasuresCorrected = rho;
        result.errorsCorrected = n_errors;
        return result;
    }

  private:
    struct Scratch
    {
        std::vector<uint16_t> rem;
        std::vector<uint32_t> syn, work, gamma, modified, lambda, prev, tmp,
            psi, omega, psiDeriv, chien, evals, termExp, termDeg;
        std::vector<size_t> badPositions;
        std::vector<uint32_t> badX;
    };

    void
    dataRemainder(const uint32_t *data, std::vector<uint16_t> &rem) const
    {
        static constexpr decltype(&divideBySlices<1>) kDivide[] = {
            divideBySlices<1>, divideBySlices<2>, divideBySlices<3>,
            divideBySlices<4>
        };
        rem.assign(n_, 0);
        kDivide[slices_ - 1](data, k(), nPar_, table_.data(), sliceBits_,
                             rem.data());
    }

    void
    syndromesInto(const uint16_t *r, Scratch &s) const
    {
        const uint16_t *lg = gf_.logData();
        const uint16_t *ex = gf_.expData();
        s.termExp.clear();
        s.termDeg.clear();
        for (size_t i = 0; i < nPar_; ++i) {
            if (r[i]) {
                s.termExp.push_back(lg[r[i]]);
                s.termDeg.push_back(uint32_t(i));
            }
        }
        const uint32_t n = uint32_t(n_);
        const size_t terms = s.termExp.size();
        uint32_t *term = s.termExp.data();
        const uint32_t *deg = s.termDeg.data();
        s.syn.resize(nPar_);
        for (size_t j = 0; j < nPar_; ++j) {
            uint32_t acc = 0;
            for (size_t t = 0; t < terms; ++t) {
                uint32_t e = term[t] + deg[t];
                e -= e >= n ? n : 0;
                term[t] = e;
                acc ^= ex[e];
            }
            s.syn[j] = acc;
        }
    }

    const GaloisField &gf_;
    size_t n_;
    size_t nPar_;
    unsigned slices_;
    unsigned sliceBits_;
    std::vector<uint16_t> table_;
    mutable Scratch s_;
    mutable size_t verifyRejects_ = 0;
};

} // namespace rs_reference
} // namespace dnastore

#endif // DNASTORE_TESTS_ECC_RS_REFERENCE_HH
