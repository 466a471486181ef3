#include "dna/primer.hh"

#include "util/rng.hh"

namespace dnastore {

namespace {

/** Generate one primer satisfying GC and homopolymer constraints. */
Strand
generatePrimer(Rng &rng, size_t primer_len)
{
    for (;;) {
        Strand p;
        p.reserve(primer_len);
        for (size_t i = 0; i < primer_len; ++i)
            p.push_back(baseFromBits(unsigned(rng.nextBelow(4))));
        double gc = gcContent(p);
        if (primer_len >= 4 && (gc < 0.4 || gc > 0.6))
            continue;
        if (maxHomopolymerRun(p) > 3)
            continue;
        return p;
    }
}

} // namespace

PrimerPair
makePrimerPair(uint64_t key_id, size_t primer_len)
{
    // Mix the key id so that adjacent ids give unrelated primers.
    Rng rng(key_id * 0x2545f4914f6cdd1dULL + 0x632be59bd9b4e019ULL);
    PrimerPair pair;
    pair.forward = generatePrimer(rng, primer_len);
    pair.backward = generatePrimer(rng, primer_len);
    return pair;
}

Strand
attachPrimers(const PrimerPair &pair, const Strand &payload)
{
    Strand out;
    out.reserve(pair.forward.size() + payload.size() +
                pair.backward.size());
    out.insert(out.end(), pair.forward.begin(), pair.forward.end());
    out.insert(out.end(), payload.begin(), payload.end());
    out.insert(out.end(), pair.backward.begin(), pair.backward.end());
    return out;
}

} // namespace dnastore
