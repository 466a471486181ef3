/**
 * @file
 * Frozen reference for the clusterer's candidate gather: the rule the
 * library shipped before frequent chains were counted in place. Every
 * posting of every signature gram, frequent or rare, is copied and
 * tagged, and the whole set is sorted; a cluster is a candidate when
 * its run starts with a rare hit and holds at least two hits (one when
 * the signature has fewer than four grams), ranked by hits descending,
 * then id ascending.
 *
 * The index is modelled by a plain map from gram fingerprint to the
 * clusters posted under it, built from the representatives a
 * GreedyState reports. A gram the map does not hold has no postings
 * and is used like any rare gram, as in GreedyState.
 */

#ifndef DNASTORE_TESTS_CLUSTER_GATHER_REFERENCE_HH
#define DNASTORE_TESTS_CLUSTER_GATHER_REFERENCE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cluster/gram_index.hh"
#include "cluster/greedy.hh"

namespace dnastore {
namespace gather_reference {

/** A GreedyState's gram index as fingerprint -> clusters, oldest first. */
class Index
{
  public:
    explicit Index(size_t qgram) : qgram_(qgram) {}

    /** Index the representatives @p state opened since the last call. */
    void
    sync(const cluster_detail::GreedyState &state)
    {
        std::vector<uint64_t> grams;
        for (; clusters_ < state.clusterCount(); ++clusters_) {
            cluster_detail::signatureInto(
                state.representativeStrand(clusters_), qgram_, SIZE_MAX,
                grams);
            for (uint64_t h : grams)
                postings_[GramIndex::fingerprint(h)].push_back(clusters_);
        }
    }

    /** Every cluster posted under @p fp, oldest first. */
    const std::vector<size_t> &
    postings(uint32_t fp) const
    {
        static const std::vector<size_t> none;
        auto it = postings_.find(fp);
        return it == postings_.end() ? none : it->second;
    }

    /** The candidates of @p read, likeliest first. */
    std::vector<size_t>
    candidates(StrandView read) const
    {
        using namespace cluster_detail;
        std::vector<uint64_t> sig;
        signatureInto(read, qgram_, kQuerySignatureSlots, sig);
        const size_t frequent = std::max(
            kFrequentMinPostings, clusters_ / kFrequentClusterDivisor);
        std::vector<size_t> hits; // cluster << 1 | frequent-gram tag
        size_t used = 0;
        for (size_t g = 0; g < sig.size() && used < kQuerySignatureSize;
             ++g) {
            const size_t first = hits.size();
            const std::vector<size_t> &chain =
                postings(GramIndex::fingerprint(sig[g]));
            hits.insert(hits.end(), chain.begin(), chain.end());
            const size_t tag = hits.size() - first >= frequent;
            used += 1 - tag;
            for (size_t i = first; i < hits.size(); ++i)
                hits[i] = hits[i] << 1 | tag;
        }
        std::sort(hits.begin(), hits.end());
        std::vector<uint64_t> ranked;
        for (size_t i = 0; i < hits.size();) {
            const size_t cluster = hits[i] >> 1;
            size_t j = i + 1;
            while (j < hits.size() && hits[j] >> 1 == cluster)
                ++j;
            if ((hits[i] & 1) == 0 && (j - i >= 2 || sig.size() < 4))
                ranked.push_back(uint64_t(0xffffffffu - (j - i)) << 32 |
                                 cluster);
            i = j;
        }
        std::sort(ranked.begin(), ranked.end());
        std::vector<size_t> out;
        for (uint64_t key : ranked)
            out.push_back(size_t(key & 0xffffffffu));
        return out;
    }

  private:
    size_t qgram_;
    size_t clusters_ = 0;
    std::unordered_map<uint32_t, std::vector<size_t>> postings_;
};

} // namespace gather_reference
} // namespace dnastore

#endif // DNASTORE_TESTS_CLUSTER_GATHER_REFERENCE_HH
