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
    uint64_t gram = 0;
    const uint64_t mask = (uint64_t(1) << (2 * qgram)) - 1;
    if (cap > read.size() - qgram) {
        // Every gram: sort + unique, so no duplicate posting ever
        // reaches the index's >= 2-hits candidate gate.
        for (size_t i = 0; i < read.size(); ++i) {
            gram = ((gram << 2) | bitsFromBase(read[i])) & mask;
            if (i + 1 >= qgram)
                out.push_back(mixHash(gram));
        }
        std::sort(out.begin(), out.end());
        out.erase(std::unique(out.begin(), out.end()), out.end());
        return;
    }
    // Selection: out holds the cap smallest distinct hashes so far,
    // sorted. Once full, one comparison rejects most grams.
    for (size_t i = 0; i < read.size(); ++i) {
        gram = ((gram << 2) | bitsFromBase(read[i])) & mask;
        if (i + 1 < qgram)
            continue;
        const uint64_t h = mixHash(gram);
        if (out.size() == cap && h >= out.back())
            continue;
        const size_t at = size_t(
            std::lower_bound(out.begin(), out.end(), h) - out.begin());
        if (at < out.size() && out[at] == h)
            continue;
        if (out.size() == cap)
            out.pop_back();
        out.insert(out.begin() + long(at), h);
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
    : params_(params),
      queryCap_(std::max<size_t>(params.signatureSize, 24)),
      autoSketch_(params.sketchBits == 0)
{
    sketch_.reset(autoSketch_ ? 12 : params.sketchBits);
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
    signatureInto(read, params_.qgram, queryCap_, sig_);
    gatherCandidates();
    size_t limit =
        size_t(params_.maxDistanceFrac * double(read.size()));
    size_t cluster = bestCluster(read, limit);
    if (cluster == size_t(-1))
        cluster = openCluster(rep_id, read);
    return cluster;
}

void
GreedyState::gatherCandidates()
{
    hits_.clear();
    candidates_.clear();
    for (uint64_t h : sig_) {
        // The sketch rejects grams no representative ever had —
        // the common case for a noisy read's corrupted grams —
        // before the index is probed at all.
        if (!sketch_.mayContain(GramIndex::fingerprint(h)))
            continue;
        index_.lookup(h, hits_);
    }
    std::sort(hits_.begin(), hits_.end());
    // One shared gram happens by chance; two is a strong hint (tiny
    // signatures keep the single-hit rule so short reads still join).
    for (size_t i = 0; i < hits_.size();) {
        size_t j = i;
        while (j < hits_.size() && hits_[j] == hits_[i])
            ++j;
        if (j - i >= 2 || sig_.size() < 4)
            candidates_.push_back(hits_[i]);
        i = j;
    }
}

size_t
GreedyState::bestCluster(StrandView read, size_t limit)
{
    const size_t k = candidates_.size();
    reps_.clear();
    for (size_t cluster : candidates_)
        reps_.push_back(repArena_.view(cluster));
    // Verify in ascending groups of four (one AVX2 batch each). Only
    // a strictly closer candidate can displace a match at distance d,
    // so later groups run bounded by d - 1 -- a later tie comes back
    // as limit + 1, keeping the earliest-wins rule -- and an exact
    // match ends the search.
    size_t best_cluster = size_t(-1);
    uint32_t dists[4];
    for (size_t base = 0; base < k; base += 4) {
        const size_t n = std::min<size_t>(4, k - base);
        editDistanceBatch(read.data(), read.size(), reps_.data() + base,
                          n, limit, dists);
        for (size_t i = 0; i < n; ++i) {
            if (dists[i] > limit)
                continue;
            best_cluster = candidates_[base + i];
            if (dists[i] == 0)
                return best_cluster;
            limit = dists[i] - 1;
        }
    }
    return best_cluster;
}

size_t
GreedyState::openCluster(size_t rep_id, StrandView read)
{
    size_t cluster = members_.size();
    members_.emplace_back();
    representative_.push_back(rep_id);
    repArena_.append(read);
    // Index the representative with ALL its grams so future noisy
    // reads still find it.
    signatureInto(read, params_.qgram, size_t(-1), fullSig_);
    for (uint64_t h : fullSig_) {
        index_.insert(h, cluster);
        sketch_.insert(GramIndex::fingerprint(h));
    }
    // Auto-sized sketches track the index: past ~8 bits per key the
    // false-positive rate decays, so rebuild with headroom.
    if (autoSketch_ && index_.keyCount() * 8 > sketch_.bitCount())
        index_.rebuildSketch(
            sketch_, GramSketch::autoLog2Bits(index_.keyCount() * 2));
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
