#include "cluster/gram_index.hh"

#include <algorithm>
#include <stdexcept>

namespace dnastore {

namespace {
constexpr size_t kInitialSlots = 1024;
} // namespace

GramIndex::GramIndex()
{
    fps_.assign(kInitialSlots, 0);
    heads_.assign(kInitialSlots, 0);
    mask_ = kInitialSlots - 1;
}

void
GramIndex::clear()
{
    std::fill(heads_.begin(), heads_.end(), 0);
    entries_.clear();
    keys_ = 0;
}

void
GramIndex::insertAll(const uint64_t *keys, size_t n, size_t cluster)
{
    if (cluster > 0xffffffffULL)
        throw std::length_error(
            "GramIndex cluster ids are limited to 2^32 - 1");
    if (n > 0xffffffffULL - entries_.size())
        throw std::length_error(
            "GramIndex posting pool is limited to 2^32 - 1 entries");
    // Slot arrays run to many MiB at scale, so nearly every probe
    // is a cache miss; issuing the miss kPrefetchAhead keys early
    // overlaps it with the inserts in between.
    constexpr size_t kPrefetchAhead = 8;
    for (size_t i = 0; i < n; ++i) {
        if (i + kPrefetchAhead < n) {
            size_t ahead = fingerprint(keys[i + kPrefetchAhead]) & mask_;
            __builtin_prefetch(&fps_[ahead], 1);
            __builtin_prefetch(&heads_[ahead], 1);
        }
        // Keep probes short: grow at 1/2 load so the average
        // successful probe stays near two slots.
        if ((keys_ + 1) * 2 > mask_ + 1)
            grow();
        uint32_t fp = fingerprint(keys[i]);
        size_t slot = probe(fp);
        if (heads_[slot] == 0) {
            fps_[slot] = fp;
            ++keys_;
        }
        entries_.push_back({ uint32_t(cluster), heads_[slot] });
        heads_[slot] = uint32_t(entries_.size());
    }
}

void
GramIndex::grow()
{
    size_t new_slots = (mask_ + 1) * 2;
    std::vector<uint32_t> fps(new_slots, 0);
    std::vector<uint32_t> heads(new_slots, 0);
    size_t new_mask = new_slots - 1;
    for (size_t s = 0; s <= mask_; ++s) {
        if (heads_[s] == 0)
            continue;
        size_t slot = fps_[s] & new_mask;
        while (heads[slot] != 0)
            slot = (slot + 1) & new_mask;
        fps[slot] = fps_[s];
        heads[slot] = heads_[s];
    }
    fps_ = std::move(fps);
    heads_ = std::move(heads);
    mask_ = new_mask;
}

} // namespace dnastore
