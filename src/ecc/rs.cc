#include "ecc/rs.hh"

#include <algorithm>
#include <functional>
#include <numeric>
#include <stdexcept>

#include "util/simd.hh"

namespace dnastore {

namespace {

/** Polynomial product (coefficients low-order first) into @p out. */
void
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

/**
 * Evaluate a polynomial (low-first coefficients) at nonzero x with a
 * fused Horner loop: the multiplier's log is hoisted so each step is
 * one log and one antilog lookup.
 */
uint32_t
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

/**
 * Feedback slices are at most this many bits wide: 2^5 rows per slice
 * keeps the benchmark-scale tables (m 10, E 188) at 23 KB, inside L1,
 * and m 16 needs four slices of 4 bits.
 */
constexpr unsigned kMaxSliceBits = 5;

/**
 * Long division of d(x) x^E by the monic g(x), highest degree first,
 * with S slices per feedback symbol. acc[d] accumulates the
 * coefficient of x^d: the feedback at degree i + E is
 * f = data[i] ^ acc[i + E], and f g(x) x^i minus its leading term is
 * the XOR of S table rows over acc[i, i + E). The next feedback is
 * XORed first, from the rows' top symbol, so the serial chain never
 * waits on the other E - 1 stores.
 */
template <unsigned S>
[[gnu::always_inline]] inline void
divideBySlices(const uint32_t *data, size_t k, size_t e,
               const uint16_t *table, unsigned bits, uint16_t *acc)
{
    const uint32_t mask = (uint32_t(1) << bits) - 1;
    uint32_t f = data[k - 1] ^ acc[k - 1 + e];
    for (size_t i = k; i-- > 0;) {
        if (f == 0) {
            f = i > 0 ? data[i - 1] ^ acc[i - 1 + e] : 0;
            continue;
        }
        const uint16_t *row[S];
        for (unsigned s = 0; s < S; ++s) {
            const size_t v = (f >> (s * bits)) & mask;
            row[s] = table + ((size_t(s) << bits) + v) * e;
        }
        uint16_t *w = acc + i;
        uint16_t top = w[e - 1];
        for (unsigned s = 0; s < S; ++s)
            top ^= row[s][e - 1];
        w[e - 1] = top;
        f = i > 0 ? data[i - 1] ^ top : 0;
        for (size_t j = 0; j + 1 < e; ++j) {
            uint16_t x = w[j];
            for (unsigned s = 0; s < S; ++s)
                x ^= row[s][j];
            w[j] = x;
        }
    }
}

/** divideBySlices compiled for AVX2: rows XOR sixteen symbols a step. */
template <unsigned S>
#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("avx2")))
#endif
void
divideAvx2(const uint32_t *data, size_t k, size_t e, const uint16_t *table,
           unsigned bits, uint16_t *acc)
{
    divideBySlices<S>(data, k, e, table, bits, acc);
}

/**
 * syn[j] ^= sum_t alpha^(exp_t + (j + 1) step_t), j < E, over @p s's
 * terms from @p t on, B at a time with their running exponents in
 * registers while j runs; returns the first term left over.
 */
template <size_t B>
size_t
addTerms(const GaloisField &gf, RsScratch &s, size_t t)
{
    const uint16_t *ex = gf.expData();
    const uint32_t n = gf.order();
    for (; t + B <= s.termExp.size(); t += B) {
        uint32_t x[B], step[B];
        std::copy_n(&s.termExp[t], B, x);
        std::copy_n(&s.termStep[t], B, step);
        for (size_t j = 0; j < s.syn.size(); ++j) {
            uint32_t acc = 0;
            for (size_t b = 0; b < B; ++b) {
                x[b] += step[b];
                x[b] -= x[b] >= n ? n : 0;
                acc ^= ex[x[b]];
            }
            s.syn[j] ^= acc;
        }
    }
    return t;
}

/** True if every one of the @p n symbols at @p p is below 2^m. */
bool
inField(const uint32_t *p, size_t n, unsigned m)
{
    return std::accumulate(p, p + n, 0u, std::bit_or<uint32_t>()) >> m == 0;
}

/** Per-thread remainder buffer for encode() and isCodeword(). */
thread_local std::vector<uint16_t> tlsRemainder;

} // namespace

ReedSolomon::ReedSolomon(const GaloisField &gf, size_t n_par)
    : gf_(gf), n_(gf.order()), nPar_(n_par),
      slices_((gf.degree() + kMaxSliceBits - 1) / kMaxSliceBits),
      sliceBits_((gf.degree() + slices_ - 1) / slices_)
{
    if (n_par == 0 || n_par >= n_)
        throw std::invalid_argument("ReedSolomon: bad parity count");

    // Generator g(x) = prod_{i=1}^{E} (x - alpha^i); roots at
    // alpha^1 .. alpha^E so the Forney formula needs no position
    // exponent correction (fcr = 1).
    std::vector<uint32_t> generator = { 1 }, next;
    for (size_t i = 1; i <= nPar_; ++i) {
        polyMulInto(gf_, generator, { gf_.alphaPow(i), 1 }, next);
        generator.swap(next);
    }

    // Split tables: row (s, v) is (v << s b) g(x) mod x^E. When b does
    // not divide m, top-slice values past the field stay zero rows.
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

void
ReedSolomon::dataRemainder(const uint32_t *data,
                           std::vector<uint16_t> &rem) const
{
    static constexpr decltype(&divideAvx2<1>) kDivide[2][4] = {
        { divideBySlices<1>, divideBySlices<2>, divideBySlices<3>,
          divideBySlices<4> },
        { divideAvx2<1>, divideAvx2<2>, divideAvx2<3>, divideAvx2<4> }
    };
    rem.assign(n_, 0);
    kDivide[simd::activeLevel() == simd::Level::Avx2][slices_ - 1](
        data, k(), nPar_, table_.data(), sliceBits_, rem.data());
}

std::vector<uint32_t>
ReedSolomon::encode(const std::vector<uint32_t> &data) const
{
    std::vector<uint32_t> codeword;
    codeword.reserve(n_);
    codeword.assign(data.begin(), data.end());
    appendParity(codeword);
    return codeword;
}

void
ReedSolomon::appendParity(std::vector<uint32_t> &word) const
{
    if (word.size() != k())
        throw std::invalid_argument("ReedSolomon: data size != k");
    if (!inField(word.data(), word.size(), gf_.degree()))
        throw std::invalid_argument(
            "ReedSolomon: data symbol outside GF(2^m)");

    // Systematic encoding: the parity is d(x) x^E mod g(x), stored at
    // codeword positions k..n-1.
    dataRemainder(word.data(), tlsRemainder);
    word.insert(word.end(), tlsRemainder.begin(),
                tlsRemainder.begin() + std::ptrdiff_t(nPar_));
}

RsDecodeResult
ReedSolomon::decode(std::vector<uint32_t> &codeword,
                    const std::vector<size_t> &erasures) const
{
    static thread_local RsScratch scratch;
    return decode(codeword, erasures, scratch);
}

RsDecodeResult
ReedSolomon::decode(std::vector<uint32_t> &codeword,
                    const std::vector<size_t> &erasures,
                    RsScratch &s) const
{
    RsDecodeResult result;
    if (codeword.size() != n_ || erasures.size() > nPar_)
        return result;
    // Sorted erasures: an out-of-range or repeated position is
    // rejected here, before any arithmetic (a repeat would give the
    // erasure locator a double root), and the erasure-only path below
    // reuses the sorted list as its bad positions.
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

    // Map external position (data index i, parity index) to the
    // exponent of its coefficient in the codeword polynomial:
    // data position i  -> degree E + i, parity position k+j -> degree j.
    auto degree_of = [this](size_t pos) {
        return pos < k() ? nPar_ + pos : pos - k();
    };

    // Erased symbols are zeroed so their (unknown) values do not
    // contaminate the remainder. Without erasures the remainder is
    // taken on the received buffer, so a clean codeword returns
    // without copying anything.
    const uint32_t *cw = codeword.data();
    if (!erasures.empty()) {
        s.work = codeword;
        for (size_t pos : erasures)
            s.work[pos] = 0;
        cw = s.work.data();
    }
    // A symbol past the field would index past the log tables.
    if (!inField(cw, n_, gf_.degree()))
        return result;
    dataRemainder(cw, s.rem);
    uint32_t nonzero = 0;
    for (size_t j = 0; j < nPar_; ++j) {
        s.rem[j] ^= uint16_t(cw[k() + j]);
        nonzero |= s.rem[j];
    }
    if (nonzero == 0) {
        // A codeword as received, or once the erased values are
        // zeroed: accept.
        if (!erasures.empty())
            codeword = s.work;
        result.success = true;
        result.erasuresCorrected = erasures.size();
        return result;
    }
    if (erasures.empty())
        s.work = codeword;
    // S_j = r(alpha^j) = sum_i r_i alpha^(i j), j = 1..E: each nonzero
    // r_i adds antilogs of log(r_i) + i j, independent lookups instead
    // of a dependent Horner chain.
    auto add_term = [&](uint32_t v, uint32_t step) {
        if (v != 0) {
            s.termExp.push_back(lg[v]);
            s.termStep.push_back(step);
        }
    };
    s.termExp.clear();
    s.termStep.clear();
    for (size_t i = 0; i < nPar_; ++i)
        add_term(s.rem[i], uint32_t(i));
    s.syn.assign(nPar_, 0);
    addTerms<1>(gf_, s, addTerms<8>(gf_, s, 0));

    // Erasure locator Gamma(x) = prod (1 - X_k x), built in place.
    s.gamma.assign(1, 1);
    for (size_t pos : erasures) {
        uint32_t xk = gf_.alphaPow(degree_of(pos));
        s.gamma.push_back(0);
        for (size_t j = s.gamma.size() - 1; j >= 1; --j)
            s.gamma[j] ^= gf_.mul(xk, s.gamma[j - 1]);
    }

    // Modified syndromes T(x) = S(x) * Gamma(x) mod x^E.
    s.modified.assign(nPar_, 0);
    for (size_t i = 0; i < nPar_; ++i) {
        uint32_t acc = 0;
        for (size_t j = 0; j <= i && j < s.gamma.size(); ++j)
            acc ^= gf_.mul(s.gamma[j], s.syn[i - j]);
        s.modified[i] = acc;
    }

    // Berlekamp-Massey on the modified syndromes for the error locator.
    const size_t rho = erasures.size();
    s.lambda.assign(1, 1);
    s.prev.assign(1, 1);
    size_t l = 0;
    for (size_t r = 0; r + rho < nPar_; ++r) {
        uint32_t delta = s.modified[r + rho];
        for (size_t i = 1; i < s.lambda.size() && i <= r + rho; ++i)
            delta ^= gf_.mul(s.lambda[i], s.modified[r + rho - i]);
        s.prev.insert(s.prev.begin(), 0); // prev *= x
        if (delta != 0) {
            if (2 * l <= r) {
                s.tmp = s.lambda;
                // lambda -= delta * prev ; prev = old lambda / delta
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

    // Combined locator Psi = Lambda * Gamma; roots give all bad
    // positions (errors + erasures).
    if (n_errors > 0)
        polyMulInto(gf_, s.lambda, s.gamma, s.psi);
    const std::vector<uint32_t> &psi =
        n_errors > 0 ? s.psi : s.gamma;
    const size_t psi_deg = psi.size() - 1;

    s.badX.clear();
    if (n_errors == 0) {
        // Erasure-only fast path: Psi = Gamma, whose roots are exactly
        // the erasure positions (sorted and distinct, see above), so
        // the Chien search is redundant.
        for (size_t pos : s.badPositions)
            s.badX.push_back(gf_.alphaPow(degree_of(pos)));
    } else {
        s.badPositions.clear();
        // Chien search over coefficient degrees: degree d is bad iff
        // Psi(alpha^{-d}) == 0, a sum of one antilog per nonzero term
        // psi_i, whose exponent steps by n - i; it stops once all
        // deg(Psi) roots are found.
        s.termExp.clear();
        s.termStep.clear();
        for (size_t i = 1; i <= psi_deg; ++i)
            add_term(psi[i], uint32_t(n_ - i));
        for (size_t d = 0; d < n_; ++d) {
            uint32_t eval = psi[0];
            for (size_t t = 0; t < s.termExp.size(); ++t) {
                uint32_t &x = s.termExp[t];
                eval ^= ex[x];
                x += s.termStep[t];
                x -= x >= n_ ? uint32_t(n_) : 0;
            }
            if (eval == 0) {
                size_t pos =
                    d < nPar_ ? k() + d : d - nPar_;
                s.badPositions.push_back(pos);
                s.badX.push_back(gf_.alphaPow(d));
                if (s.badPositions.size() == psi_deg)
                    break;
            }
        }
    }
    if (s.badPositions.size() != psi_deg)
        return result; // locator degree mismatch: decoding failure

    // Error evaluator Omega(x) = S(x) * Psi(x) mod x^E, below degree
    // deg(Psi) only; the higher coefficients are zero whenever the
    // check below can pass (see rs.hh).
    s.omega.assign(psi_deg, 0);
    for (size_t i = 0; i < psi_deg; ++i) {
        uint32_t acc = 0;
        for (size_t j = 0; j <= i && j < psi.size(); ++j)
            acc ^= gf_.mul(psi[j], s.syn[i - j]);
        s.omega[i] = acc;
    }
    // Formal derivative over GF(2^m): odd-degree terms survive.
    s.psiDeriv.assign(psi_deg > 0 ? psi_deg : 1, 0);
    for (size_t i = 1; i < psi.size(); ++i)
        s.psiDeriv[i - 1] = (i & 1) ? psi[i] : 0;

    // Forney: e_k = Omega(X_k^{-1}) / Psi'(X_k^{-1})  (fcr = 1). Each
    // value e at X also becomes a term for the check below: it moves
    // S_j by e X^j, the antilog of log e + j log X.
    s.termExp.clear();
    s.termStep.clear();
    for (size_t idx = 0; idx < s.badPositions.size(); ++idx) {
        uint32_t x_inv = gf_.inverse(s.badX[idx]);
        uint32_t num =
            polyEvalAt(gf_, s.omega.data(), s.omega.size(), x_inv);
        uint32_t den = polyEvalAt(gf_, s.psiDeriv.data(),
                                  s.psiDeriv.size(), x_inv);
        if (den == 0)
            return result;
        uint32_t e = gf_.div(num, den);
        add_term(e, lg[s.badX[idx]]);
        s.work[s.badPositions[idx]] ^= e;
    }

    // Verify the correction produced a codeword: the applied values'
    // terms must cancel every syndrome (no pass over all n symbols).
    addTerms<1>(gf_, s, addTerms<8>(gf_, s, 0));
    if (!std::all_of(s.syn.begin(), s.syn.end(),
                     [](uint32_t v) { return v == 0; })) {
        return result;
    }

    codeword = s.work;
    result.success = true;
    result.erasuresCorrected = rho;
    result.errorsCorrected = n_errors;
    return result;
}

bool
ReedSolomon::isCodeword(const std::vector<uint32_t> &codeword) const
{
    if (codeword.size() != n_ ||
        !inField(codeword.data(), n_, gf_.degree()))
        return false;
    dataRemainder(codeword.data(), tlsRemainder);
    for (size_t j = 0; j < nPar_; ++j) {
        if (tlsRemainder[j] != codeword[k() + j])
            return false;
    }
    return true;
}

} // namespace dnastore
