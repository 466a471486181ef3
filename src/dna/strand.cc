#include "dna/strand.hh"

#include <algorithm>
#include <stdexcept>

#include "dna/packed_strand.hh"
#include "util/simd.hh"

namespace dnastore {

std::string
strandToString(const Strand &s)
{
    std::string out;
    out.resize(s.size());
    for (size_t i = 0; i < s.size(); ++i)
        out[i] = baseToChar(s[i]);
    return out;
}

Strand
strandFromString(const std::string &str)
{
    Strand out;
    out.resize(str.size());
    for (size_t i = 0; i < str.size(); ++i) {
        bool ok = false;
        out[i] = charToBase(str[i], &ok);
        if (!ok)
            throw std::invalid_argument("invalid base character in strand");
    }
    return out;
}

Strand
reversed(const Strand &s)
{
    const size_t n = s.size();
    Strand out(n);
    for (size_t i = 0; i < n; ++i)
        out[i] = s[n - 1 - i];
    return out;
}

double
gcContent(const Strand &s)
{
    if (s.empty())
        return 0.0;
    size_t gc = 0;
    for (Base b : s)
        if (b == Base::G || b == Base::C)
            ++gc;
    return double(gc) / double(s.size());
}

size_t
maxHomopolymerRun(const Strand &s)
{
    size_t best = s.empty() ? 0 : 1;
    size_t run = 1;
    for (size_t i = 1; i < s.size(); ++i) {
        if (s[i] == s[i - 1]) {
            ++run;
            best = std::max(best, run);
        } else {
            run = 1;
        }
    }
    return best;
}

size_t
editDistanceRange(const Base *a, size_t na, const Base *b, size_t nb)
{
    // One text through the bounded Myers kernel (util/simd.hh) at a
    // limit it can never reach. The pattern is the shorter strand
    // (fewer 64-row blocks).
    if (nb > na) {
        std::swap(a, b);
        std::swap(na, nb);
    }
    if (nb == 0)
        return na;
    static thread_local MyersPattern masks;
    masks.assign(b, nb);
    const StrandView text(a, na);
    uint32_t dist = 0;
    masks.batch(&text, 1, na, &dist);
    return dist;
}

size_t
editDistance(const Strand &a, const Strand &b)
{
    return editDistanceRange(a.data(), a.size(), b.data(), b.size());
}

void
editDistanceBatch(const Base *pattern, size_t m,
                  const StrandView *texts, size_t k, size_t limit,
                  uint32_t *dists)
{
    static thread_local MyersPattern masks;
    masks.assign(pattern, m);
    masks.batch(texts, k, limit, dists);
}

void
MyersPattern::assign(const Base *pattern, size_t m)
{
    m_ = m;
    peq_.resize(simd::myersMaskWords(m));
    simd::myersMasks(reinterpret_cast<const uint8_t *>(pattern), m,
                     peq_.data());
}

void
MyersPattern::batch(const StrandView *texts, size_t k, size_t limit,
                    uint32_t *dists) const
{
    if (m_ == 0) {
        for (size_t i = 0; i < k; ++i) {
            const size_t n = texts[i].size();
            dists[i] = uint32_t(n <= limit ? n : limit + 1);
        }
        return;
    }
    static thread_local std::vector<const uint8_t *> ptrs;
    static thread_local std::vector<size_t> lens;
    ptrs.resize(k);
    lens.resize(k);
    for (size_t i = 0; i < k; ++i) {
        ptrs[i] = reinterpret_cast<const uint8_t *>(texts[i].data());
        lens[i] = texts[i].size();
    }
    simd::myersBatch(peq_.data(), m_, ptrs.data(), lens.data(), k, limit,
                     dists);
}

size_t
hammingDistance(const Strand &a, const Strand &b)
{
    size_t n = std::min(a.size(), b.size());
    size_t d = 0;
    for (size_t i = 0; i < n; ++i)
        if (a[i] != b[i])
            ++d;
    return d;
}

} // namespace dnastore
