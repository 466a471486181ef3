/**
 * @file
 * Flat-memory strand containers for the simulation hot path.
 *
 * The simulator's steady state handles millions of noisy reads; storing
 * each as its own heap-allocated std::vector<Base> costs an allocation,
 * a pointer chase, and cache-line padding per read. This layer provides
 * the flat alternatives:
 *
 *  - StrandView: a non-owning span over bases, so algorithms can run on
 *    strands stored anywhere (a Strand, an arena, a decoded buffer)
 *    without copying.
 *  - StrandArena: an append-only pool that keeps many strands in one
 *    contiguous base buffer, so a cluster's reads share cache lines and
 *    the per-read allocation disappears.
 *  - packBases / unpackBases and PackedArena: 2-bit base packing (32
 *    bases per 64-bit word), for read pools that must hold
 *    production-scale read sets in memory.
 */

#ifndef DNASTORE_DNA_PACKED_STRAND_HH
#define DNASTORE_DNA_PACKED_STRAND_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dna/strand.hh"

namespace dnastore {

/** Non-owning view of a contiguous run of bases. */
class StrandView
{
  public:
    StrandView() = default;

    StrandView(const Base *data, size_t size) : data_(data), size_(size) {}

    /** A whole Strand viewed in place (no copy). */
    StrandView(const Strand &s) : data_(s.data()), size_(s.size()) {}

    const Base *data() const { return data_; }
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    Base operator[](size_t i) const { return data_[i]; }

    const Base *begin() const { return data_; }
    const Base *end() const { return data_ + size_; }

    /** Materialize an owning copy. */
    Strand toStrand() const { return Strand(data_, data_ + size_); }

  private:
    const Base *data_ = nullptr;
    size_t size_ = 0;
};

bool operator==(StrandView a, StrandView b);
inline bool
operator!=(StrandView a, StrandView b)
{
    return !(a == b);
}

/**
 * Append-only pool of strands in one contiguous base buffer.
 *
 * Build strands whole (append), or in place (appendUninitialized).
 * Views are stable only while no further bases are appended: take
 * them after the arena is fully built.
 */
class StrandArena
{
  public:
    StrandArena() { offsets_.push_back(0); }

    /** Drop all strands but keep the allocated capacity. */
    void
    clear()
    {
        bases_.clear();
        offsets_.clear();
        offsets_.push_back(0);
    }

    /**
     * Pre-size the buffers so the build loop never reallocates. An
     * empty arena gets exactly the request. One that already holds
     * strands grows to at least twice its capacity, so a caller that
     * reserves "what I have plus this cluster" before every append
     * copies the arena O(log n) times, not once per call.
     */
    void
    reserve(size_t total_bases, size_t n_strands)
    {
        const bool holds = !bases_.empty() || offsets_.size() > 1;
        growTo(bases_, total_bases, holds);
        growTo(offsets_, n_strands + 1, holds);
    }

    /** Append a whole strand; @p s must not alias this arena. */
    void
    append(StrandView s)
    {
        bases_.insert(bases_.end(), s.begin(), s.end());
        offsets_.push_back(bases_.size());
    }

    /**
     * Append a new strand of @p n uninitialized bases and return its
     * writable start. The pointer is valid until the next append.
     */
    Base *
    appendUninitialized(size_t n)
    {
        size_t off = bases_.size();
        bases_.resize(off + n);
        offsets_.push_back(bases_.size());
        return bases_.data() + off;
    }


    size_t strandCount() const { return offsets_.size() - 1; }
    size_t totalBases() const { return bases_.size(); }

    StrandView
    view(size_t i) const
    {
        return StrandView(bases_.data() + offsets_[i],
                          offsets_[i + 1] - offsets_[i]);
    }

  private:
    template <typename T>
    static void
    growTo(std::vector<T> &v, size_t n, bool geometric)
    {
        if (n <= v.capacity())
            return;
        v.reserve(geometric && 2 * v.capacity() > n ? 2 * v.capacity()
                                                    : n);
    }

    std::vector<Base> bases_;
    std::vector<size_t> offsets_;
};

/** Pack bases 2 bits each into 64-bit words, low bits first. */
void packBases(const Base *bases, size_t n, uint64_t *words);

/** Inverse of packBases. */
void unpackBases(const uint64_t *words, size_t n, Base *bases);

/** Words needed to hold @p n packed bases. */
inline size_t
packedWordCount(size_t n)
{
    return (n + 31) / 32;
}

/**
 * Append-only pool of 2-bit-packed strands, each starting on a word
 * boundary so strands pack and unpack with whole-word operations.
 * Quarters the memory of a StrandArena at the cost of an unpack step
 * before random-access algorithms run.
 */
class PackedArena
{
  public:
    void
    clear()
    {
        words_.clear();
        wordOffsets_.clear();
        sizes_.clear();
    }

    void
    reserve(size_t total_bases, size_t n_strands)
    {
        words_.reserve(packedWordCount(total_bases) + n_strands);
        wordOffsets_.reserve(n_strands);
        sizes_.reserve(n_strands);
    }

    /** Append a packed copy of @p s. */
    void append(StrandView s);

    size_t strandCount() const { return sizes_.size(); }

    /** Length in bases of strand @p i. */
    size_t size(size_t i) const { return sizes_[i]; }

    /** Unpack strand @p i into @p out (resized to fit). */
    void unpackInto(size_t i, Strand &out) const;

    /** Unpack strand @p i as a new strand appended to @p out. */
    void unpackInto(size_t i, StrandArena &out) const;

  private:
    std::vector<uint64_t> words_;
    std::vector<size_t> wordOffsets_;
    std::vector<uint32_t> sizes_;
};

/**
 * A set of reads grouped into clusters, as strand views plus cluster
 * offsets — the decoder-facing shape of a read pool query. The views
 * either alias external storage (a pool's arenas, caller vectors) or
 * the batch's own scratch arena when the source needed unpacking.
 */
struct ReadBatch
{
    StrandArena scratch;            //!< Backing store when views can't alias.
    std::vector<StrandView> views;  //!< All reads, cluster-concatenated.
    std::vector<size_t> offsets;    //!< clusters() + 1 cluster boundaries.

    void
    clear()
    {
        scratch.clear();
        views.clear();
        offsets.clear();
    }

    size_t
    clusters() const
    {
        return offsets.empty() ? 0 : offsets.size() - 1;
    }

    const StrandView *
    cluster(size_t c) const
    {
        return views.data() + offsets[c];
    }

    size_t
    clusterSize(size_t c) const
    {
        return offsets[c + 1] - offsets[c];
    }
};

} // namespace dnastore

#endif // DNASTORE_DNA_PACKED_STRAND_HH
