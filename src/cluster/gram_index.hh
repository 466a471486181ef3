/**
 * @file
 * The flat gram index behind q-gram candidate generation.
 *
 * For every read, each signature gram is looked up in an index of the
 * grams of all cluster representatives. GramIndex is an
 * open-addressing hash table in a single contiguous slot array
 * (linear probing), with per-key posting chains kept in one
 * contiguous entry pool. No per-key allocation, no node chasing;
 * growth rehashes slots only, never the entries. Most query grams of
 * a noisy read are corrupted and were never indexed; their probe ends
 * at the first empty slot, which the 1/2-load grow rule keeps near.
 *
 * A new representative indexes all its distinct grams in one
 * GramIndex::insertAll batch. At scale the slot arrays are many MiB
 * and nearly every insert misses cache, so the batch prefetches the
 * slots of the key eight positions ahead and the misses overlap. The
 * fingerprint and head arrays stay separate: an interleaved
 * {fingerprint, head} slot ran no faster and held more memory.
 *
 * The index is content-deterministic: every posting chain, newest
 * first, and therefore every candidate list derived from it depends
 * only on the insertion sequence, never on capacity or probe order.
 * So GramIndex::clear() keeps its grown arrays for the next shard.
 */

#ifndef DNASTORE_CLUSTER_GRAM_INDEX_HH
#define DNASTORE_CLUSTER_GRAM_INDEX_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dnastore {

/**
 * gram hash -> postings of cluster ids, in one slot array plus one
 * entry pool.
 *
 * Slots store a 32-bit fingerprint of the (already well-mixed) 64-bit
 * gram hash instead of the full key: a fingerprint collision merges
 * two posting chains, which only adds a spurious candidate that exact
 * verification rejects — never a wrong clustering — and halves the
 * slot footprint at the scales where the index dominates memory.
 *
 * The fingerprint is the key's top 32 bits, so keys that share a
 * chain lie in one aligned 2^32-wide hash range. GreedyState indexes
 * only the keys at or below a watermark whose low 32 bits are set:
 * a chain is then wholly indexed or wholly absent, never split.
 *
 * Posting chains are newest-first, a contract: a caller that opens
 * clusters with ascending ids (GreedyState does) sees ids never
 * increase along a chain, so a walk can stop below the smallest id it
 * wants. A fingerprint collision or a repeated key posts a cluster
 * twice, back to back.
 */
class GramIndex
{
  public:
    struct Posting
    {
        uint32_t cluster;
        uint32_t next; //!< 1-based index into the pool; 0 = end.
    };

    GramIndex();

    /** Drop every key and posting; the arrays keep their capacity. */
    void clear();

    /**
     * Add @p cluster to the postings of each of @p keys, in order
     * (duplicates allowed), prefetching the slots of the key eight
     * positions ahead so the cache misses overlap. The 1/2-load grow
     * check runs per key; a grow mid-batch only makes the pending
     * prefetches stale.
     */
    void insertAll(const uint64_t *keys, size_t n, size_t cluster);

    /** First posting (1-based) of @p key's chain; 0 if none. */
    uint32_t
    head(uint64_t key) const
    {
        return heads_[probe(fingerprint(key))];
    }

    /** Posting @p e (1-based: a head() or a Posting::next). */
    const Posting &posting(uint32_t e) const { return entries_[e - 1]; }

    /** The fingerprint the slot array stores for @p key. */
    static uint32_t
    fingerprint(uint64_t key)
    {
        // Keys are mixed hashes already, so the top half alone is
        // uniform; it keeps a chain's keys in one watermark band.
        uint32_t fp = uint32_t(key >> 32);
        // 0 marks never-written slots in fps_; remap.
        return fp == 0 ? 1u : fp;
    }

  private:
    /**
     * Slot holding @p fp's chain, or the first free slot of its probe
     * sequence (heads_[slot] == 0).
     */
    size_t
    probe(uint32_t fp) const
    {
        size_t slot = fp & mask_;
        while (heads_[slot] != 0 && fps_[slot] != fp)
            slot = (slot + 1) & mask_;
        return slot;
    }

    void grow();

    std::vector<uint32_t> fps_;   //!< Slot fingerprints.
    std::vector<uint32_t> heads_; //!< 1-based chain heads; 0 = empty.
    std::vector<Posting> entries_; //!< Posting pool, insertion order.
    size_t keys_ = 0;             //!< Occupied slots.
    size_t mask_ = 0;             //!< Slot count - 1 (power of two).
};

} // namespace dnastore

#endif // DNASTORE_CLUSTER_GRAM_INDEX_HH
