/**
 * @file
 * PCR primer generation and framing.
 *
 * Each file (key) in a DNA key-value store is tagged with a pair of
 * primer sequences: one prepended and one appended to every strand of
 * the file (paper section 2.1). Primers act as the PCR random-access
 * key; here they are generated deterministically from a key id subject
 * to biochemical plausibility constraints (balanced GC content, no long
 * homopolymers).
 */

#ifndef DNASTORE_DNA_PRIMER_HH
#define DNASTORE_DNA_PRIMER_HH

#include <cstddef>
#include <cstdint>

#include "dna/strand.hh"

namespace dnastore {

/** A forward/reverse primer pair identifying one stored object. */
struct PrimerPair
{
    Strand forward;  //!< Prepended to every strand of the object.
    Strand backward; //!< Appended to every strand of the object.
};

/**
 * Deterministically derive a primer pair for a key.
 *
 * The generated primers satisfy GC content in [0.4, 0.6] and contain
 * no homopolymer longer than 3 bases, the usual synthesis guidance.
 *
 * @param key_id   Object key; distinct keys get distinct primers.
 * @param primer_len Bases per primer (paper: 20 each, 40 total).
 */
PrimerPair makePrimerPair(uint64_t key_id, size_t primer_len);

/** Frame a payload with a primer pair: forward + payload + backward. */
Strand attachPrimers(const PrimerPair &pair, const Strand &payload);

} // namespace dnastore

#endif // DNASTORE_DNA_PRIMER_HH
