#include "dna/packed_strand.hh"

#include <cstring>

namespace dnastore {

bool
operator==(StrandView a, StrandView b)
{
    if (a.size() != b.size())
        return false;
    if (a.size() == 0 || a.data() == b.data())
        return true;
    return std::memcmp(a.data(), b.data(), a.size() * sizeof(Base)) == 0;
}

void
packBases(const Base *bases, size_t n, uint64_t *words)
{
    size_t full = n / 32;
    for (size_t w = 0; w < full; ++w) {
        const Base *p = bases + w * 32;
        uint64_t word = 0;
        for (size_t j = 0; j < 32; ++j)
            word |= uint64_t(static_cast<uint8_t>(p[j])) << (2 * j);
        words[w] = word;
    }
    size_t rest = n % 32;
    if (rest) {
        const Base *p = bases + full * 32;
        uint64_t word = 0;
        for (size_t j = 0; j < rest; ++j)
            word |= uint64_t(static_cast<uint8_t>(p[j])) << (2 * j);
        words[full] = word;
    }
}

void
unpackBases(const uint64_t *words, size_t n, Base *bases)
{
    size_t full = n / 32;
    for (size_t w = 0; w < full; ++w) {
        uint64_t word = words[w];
        Base *p = bases + w * 32;
        for (size_t j = 0; j < 32; ++j)
            p[j] = static_cast<Base>((word >> (2 * j)) & 3);
    }
    size_t rest = n % 32;
    if (rest) {
        uint64_t word = words[full];
        Base *p = bases + full * 32;
        for (size_t j = 0; j < rest; ++j)
            p[j] = static_cast<Base>((word >> (2 * j)) & 3);
    }
}

void
PackedArena::append(StrandView s)
{
    size_t off = words_.size();
    size_t n_words = packedWordCount(s.size());
    words_.resize(off + n_words, 0);
    if (!s.empty())
        packBases(s.data(), s.size(), words_.data() + off);
    wordOffsets_.push_back(off);
    sizes_.push_back(uint32_t(s.size()));
}

void
PackedArena::unpackInto(size_t i, Strand &out) const
{
    out.resize(sizes_[i]);
    if (sizes_[i])
        unpackBases(words_.data() + wordOffsets_[i], sizes_[i],
                    out.data());
}

void
PackedArena::unpackInto(size_t i, StrandArena &out) const
{
    size_t n = sizes_[i];
    Base *dst = out.appendUninitialized(n);
    if (n)
        unpackBases(words_.data() + wordOffsets_[i], n, dst);
}

} // namespace dnastore
