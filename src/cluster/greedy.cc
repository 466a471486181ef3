#include "cluster/greedy.hh"

#include <algorithm>
#include <limits>

#include "dna/strand.hh"

namespace dnastore {
namespace cluster_detail {

void
signatureInto(StrandView read, size_t qgram, size_t cap,
              std::vector<uint64_t> &out)
{
    out.clear();
    if (read.size() < qgram || cap == 0)
        return;
    // Hashes are near-uniform, so about 2 cap + 16 of the n grams fall
    // under the bound; when at least cap distinct ones do, they are
    // exactly the cap smallest. Unique keeps duplicate postings from
    // the >= 2-hits candidate gate.
    const size_t n = read.size() - qgram + 1;
    const uint64_t bound = cap < n && 2 * cap + 16 < n
        ? (~uint64_t(0) / n) * (2 * cap + 16)
        : ~uint64_t(0);
    const uint64_t mask = (uint64_t(1) << (2 * qgram)) - 1;
    uint64_t gram = 0;
    size_t kept = 0;
    out.resize(n);
    for (size_t i = 0; i + 1 < qgram; ++i)
        gram = (gram << 2) | bitsFromBase(read[i]);
    for (size_t i = qgram - 1; i < read.size(); ++i) {
        gram = ((gram << 2) | bitsFromBase(read[i])) & mask;
        const uint64_t h = mixHash(gram);
        out[kept] = h; // branch-free: kept only when under the bound
        kept += h <= bound;
    }
    // A counting sort on the top 7 bits below the bound leaves about
    // one hash per bucket, so the insertion sort that finishes rarely
    // mispredicts (std::sort on random keys does half the time). Large
    // sets, where insertion sort could go quadratic, take std::sort.
    if (kept <= 256) {
        const int shift = 57 - __builtin_clzll(bound);
        uint32_t next[129] = {}; // each bucket's next free slot
        for (size_t i = 0; i < kept; ++i)
            ++next[(out[i] >> shift) + 1];
        for (size_t b = 1; b <= 128; ++b)
            next[b] += next[b - 1];
        out.resize(n + kept);
        for (size_t i = 0; i < kept; ++i)
            out[n + next[out[i] >> shift]++] = out[i];
        for (size_t i = n + 1; i < n + kept; ++i)
            for (size_t j = i; j > n && out[j - 1] > out[j]; --j)
                std::swap(out[j - 1], out[j]);
        out.erase(out.begin(), out.begin() + long(n));
    } else {
        out.resize(kept);
        std::sort(out.begin(), out.end());
    }
    out.erase(std::unique(out.begin(), out.end()), out.end());
    if (out.size() < cap && bound != ~uint64_t(0))
        signatureInto(read, qgram, n, out); // degenerate: every gram
    if (out.size() > cap)
        out.resize(cap);
}

void
DistinctGrams::collect(StrandView read, size_t qgram, uint64_t lo,
                       uint64_t hi, std::vector<uint64_t> &out)
{
    out.clear();
    if (read.size() < qgram)
        return;
    const size_t grams = read.size() - qgram + 1;
    size_t want = 64;
    while (want < grams * 2)
        want *= 2;
    if (slots_.size() < want) {
        slots_.assign(want, Slot{ 0, 0 });
        gen_ = 0;
    }
    if (++gen_ == 0) { // wrapped: stale stamps could read as current
        for (Slot &slot : slots_)
            slot.gen = 0;
        gen_ = 1;
    }
    const size_t slot_mask = slots_.size() - 1;
    uint64_t gram = 0;
    const uint64_t mask = (uint64_t(1) << (2 * qgram)) - 1;
    for (size_t i = 0; i < read.size(); ++i) {
        gram = ((gram << 2) | bitsFromBase(read[i])) & mask;
        if (i + 1 < qgram)
            continue;
        const uint64_t h = mixHash(gram);
        if (h < lo || h > hi)
            continue;
        size_t s = h & slot_mask;
        while (slots_[s].gen == gen_ && slots_[s].key != h)
            s = (s + 1) & slot_mask;
        if (slots_[s].gen == gen_)
            continue;
        slots_[s] = { h, gen_ };
        out.push_back(h);
    }
}

uint64_t
minimizerOf(StrandView read, size_t qgram)
{
    if (read.size() < qgram)
        return 0;
    uint64_t gram = 0;
    const uint64_t mask = (uint64_t(1) << (2 * qgram)) - 1;
    uint64_t best = std::numeric_limits<uint64_t>::max();
    for (size_t i = 0; i < read.size(); ++i) {
        gram = ((gram << 2) | bitsFromBase(read[i])) & mask;
        if (i + 1 >= qgram)
            best = std::min(best, mixHash(gram));
    }
    return best;
}

size_t
resolveShardCount(const ClusterParams &params, size_t n_reads)
{
    if (params.numShards != 0)
        return std::min(params.numShards,
                        std::max<size_t>(n_reads, 1));
    if (n_reads < 2048)
        return 1;
    return n_reads / 512;
}

GreedyState::GreedyState(const ClusterParams &params)
    : params_(params)
{
    reset();
}

void
GreedyState::reset()
{
    index_.clear();
    // The floor covers fingerprint 1, which keys with top half 0 share.
    watermark_ = (uint64_t(1) << 33) - 1;
    repArena_.clear();
    representative_.clear();
    members_.clear();
    history_.fill(0);
}

void
GreedyState::consume(size_t global_id, StrandView read)
{
    size_t cluster = joinOrOpen(global_id, read);
    members_[cluster].push_back(global_id);
}

void
GreedyState::consumeGroup(size_t rep_id, StrandView rep,
                          std::vector<size_t> &&members)
{
    size_t cluster = joinOrOpen(rep_id, rep);
    auto &dst = members_[cluster];
    if (dst.empty())
        dst = std::move(members);
    else
        dst.insert(dst.end(), members.begin(), members.end());
}

size_t
GreedyState::joinOrOpen(size_t rep_id, StrandView read)
{
    candidatesOf(read);
    size_t limit =
        size_t(params_.maxDistanceFrac * double(read.size()));
    size_t cluster = bestCluster(read, limit);
    if (cluster == size_t(-1))
        cluster = openCluster(rep_id, read);
    return cluster;
}

const std::vector<size_t> &
GreedyState::candidatesOf(StrandView read)
{
    signatureInto(read, params_.qgram, kQuerySignatureSlots, sig_);
    if (!sig_.empty() && sig_.back() > watermark_) {
        // Back-fill the band (old, new] in ascending id: its chains
        // were empty, so they end up newest first, as a full index.
        const uint64_t lo = watermark_ + 1;
        watermark_ = (sig_.back() >> 63 ? ~uint64_t(0) : sig_.back() * 2) |
            0xffffffffu;
        for (size_t c = 0; c < clusterCount(); ++c) {
            distinct_.collect(repArena_.view(c), params_.qgram, lo,
                              watermark_, repGrams_);
            index_.insertAll(repGrams_.data(), repGrams_.size(), c);
        }
    }
    hits_.clear();
    frequentHeads_.clear();
    // sig_ holds the kQuerySignatureSlots smallest grams; walk them in
    // hash order until kQuerySignatureSize rare ones are used. A
    // frequent gram's chain is kept for the vote and its slot refilled
    // by the next gram, so primers never crowd out the payload.
    const size_t frequent = std::max(
        kFrequentMinPostings, clusterCount() / kFrequentClusterDivisor);
    size_t used = 0;
    for (size_t g = 0; g < sig_.size() && used < kQuerySignatureSize;
         ++g) {
        // A gram with no postings (a noisy read's corrupted grams,
        // mostly) is used like any rare one. A rare chain's postings
        // nominate; `frequent` of them are enough to tell it from a
        // frequent one.
        const uint32_t head = index_.head(sig_[g]);
        const size_t first = hits_.size();
        for (uint32_t e = head; e != 0 && hits_.size() - first < frequent;
             e = index_.posting(e).next)
            hits_.push_back(index_.posting(e).cluster);
        if (hits_.size() - first < frequent) {
            ++used;
        } else {
            hits_.resize(first);
            frequentHeads_.push_back(head);
        }
    }
    // Nominees: each distinct rare-hit cluster, ascending, as
    // cluster << 32 | hits.
    std::sort(hits_.begin(), hits_.end());
    ranked_.clear();
    for (uint32_t cluster : hits_) {
        if (ranked_.empty() || ranked_.back() >> 32 != cluster)
            ranked_.push_back(uint64_t(cluster) << 32);
        ++ranked_.back();
    }
    // A frequent gram only votes. Ids descend along its chain, so one
    // merge walk from the top nominee down counts every posting of a
    // nominee, repeats included, and stops below the lowest.
    for (const uint32_t head : frequentHeads_) {
        size_t k = ranked_.size();
        for (uint32_t e = head; e != 0; e = index_.posting(e).next) {
            const uint64_t id = index_.posting(e).cluster;
            while (k > 0 && ranked_[k - 1] >> 32 > id)
                --k;
            if (k == 0)
                break;
            ranked_[k - 1] += ranked_[k - 1] >> 32 == id;
        }
    }
    // One shared gram happens by chance; two is a strong hint (tiny
    // signatures keep the single-hit rule so short reads still join).
    // Each survivor is ranked by (hits descending, id ascending) in
    // one key; ids fit 32 bits (GramIndex enforces it).
    size_t kept = 0;
    for (uint64_t nominee : ranked_) {
        const uint32_t hits = uint32_t(nominee);
        if (hits >= 2 || sig_.size() < 4)
            ranked_[kept++] =
                uint64_t(0xffffffffu - hits) << 32 | nominee >> 32;
    }
    ranked_.resize(kept);
    std::sort(ranked_.begin(), ranked_.end());
    candidates_.clear();
    for (uint64_t key : ranked_)
        candidates_.push_back(size_t(key & 0xffffffffu));
    return candidates_;
}

size_t
GreedyState::firstBound(size_t limit) const
{
    // A pass within b costs about c(b) = 2b + kColumnCost per column,
    // and a miss adds c(limit): minimize c(b) + P(d > b) c(limit)
    // over the bin edges, scaled by the history's size. An empty
    // history costs 0 everywhere and keeps the limit. c is a relative
    // price, not a row count: Ukkonen's band at b is about b + 1 rows,
    // one sliding word up to 64 of them and 64-row blocks past that,
    // so a pass costs a column's fixed work plus a term that grows
    // with b, and a miss pays the wide block pass at the limit on top.
    // Any bound gives the same clustering; only the work moves.
    uint64_t beyond = 0;
    for (uint64_t count : history_)
        beyond += count;
    const uint64_t total = beyond, full = 2 * limit + kColumnCost;
    uint64_t best_cost = total * full;
    size_t best = limit;
    for (size_t i = 0; i + 1 < kBoundBins; ++i) {
        beyond -= history_[i];
        const size_t b = ((i + 1) * (limit + 1) - 1) / kBoundBins;
        const uint64_t cost = total * (2 * b + kColumnCost) + beyond * full;
        if (cost < best_cost) {
            best_cost = cost;
            best = b;
        }
    }
    return best;
}

size_t
GreedyState::bestCluster(StrandView read, size_t limit)
{
    const size_t k = candidates_.size();
    if (k == 0)
        return size_t(-1);
    reps_.clear();
    for (size_t cluster : candidates_)
        reps_.push_back(repArena_.view(cluster));
    // Verify in groups of four (one kernel batch each), likeliest
    // first: the first group usually holds the true cluster at a
    // small distance, and every later group runs bounded by it, so an
    // unrelated representative retires within a few columns. Only
    // the (distance, cluster id) minimum is kept, which is the
    // smallest distance, earliest cluster on ties, in any order. A
    // first pass gives every candidate within its bound the exact
    // distance and none beyond can beat those, so a hit is also the
    // minimum within the limit: only a miss needs the second pass.
    size_t best_d = firstBound(limit), best_cluster = size_t(-1);
    uint32_t dists[4];
    readMasks_.assign(read.data(), read.size());
    for (;;) {
        const size_t bound = best_d;
        for (size_t base = 0; base < k; base += 4) {
            const size_t n = std::min<size_t>(4, k - base);
            readMasks_.batch(reps_.data() + base, n, best_d, dists);
            for (size_t i = 0; i < n; ++i) {
                const size_t cluster = candidates_[base + i];
                if (dists[i] < best_d ||
                    (dists[i] == best_d && cluster < best_cluster)) {
                    best_d = dists[i];
                    best_cluster = cluster;
                }
            }
        }
        if (best_cluster != size_t(-1) || bound == limit)
            break;
        best_d = limit;
    }
    ++history_[best_cluster == size_t(-1)
                   ? kBoundBins
                   : best_d * kBoundBins / (limit + 1)];
    return best_cluster;
}

size_t
GreedyState::openCluster(size_t rep_id, StrandView read)
{
    size_t cluster = members_.size();
    members_.emplace_back();
    representative_.push_back(rep_id);
    repArena_.append(read);
    // Index every distinct gram under the watermark so future noisy
    // reads still find it. Their order is irrelevant: every posting
    // of this open carries the same id.
    distinct_.collect(read, params_.qgram, 0, watermark_, repGrams_);
    index_.insertAll(repGrams_.data(), repGrams_.size(), cluster);
    return cluster;
}

Clustering
GreedyState::finalize(size_t n_reads)
{
    // Canonical ids: clusters ordered by smallest member, members
    // ascending. The single-shard greedy pass already produces this
    // order; the sharded merge needs the sort.
    for (auto &m : members_)
        std::sort(m.begin(), m.end());
    std::vector<size_t> order(members_.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
        return members_[a].front() < members_[b].front();
    });

    Clustering out;
    out.clusterOf.assign(n_reads, 0);
    out.members.reserve(order.size());
    for (size_t cluster : order) {
        for (size_t r : members_[cluster])
            out.clusterOf[r] = out.members.size();
        out.members.push_back(std::move(members_[cluster]));
    }
    return out;
}

} // namespace cluster_detail
} // namespace dnastore
