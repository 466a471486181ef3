#include "cluster/clusterer.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "cluster/stream.hh"

namespace dnastore {

const char *
ClusterParams::check() const
{
    // 2 bits per base must fit the 64-bit gram hash; finiteness is
    // tested first because NaN fails every ordered comparison.
    if (qgram < 1 || qgram > 31)
        return "cluster-qgram must be in [1, 31]";
    if (!std::isfinite(maxDistanceFrac))
        return "cluster-maxdist must be finite";
    if (!(maxDistanceFrac > 0.0) || maxDistanceFrac > 1.0)
        return "cluster-maxdist must be in (0, 1]";
    return nullptr;
}

Clustering
clusterReads(const std::vector<Strand> &reads,
             const ClusterParams &params)
{
    // One engine for every caller; with no memory budget it never
    // spills, so this is the in-memory clustering too.
    StreamingClusterer engine(params);
    for (const Strand &read : reads)
        engine.add(read);
    return engine.finish();
}

ClusterQuality
scoreClustering(const Clustering &clustering,
                const std::vector<size_t> &truth)
{
    // Contingency counting over sorted labels: pairs agreeing on a
    // label are sum over label groups of C(group, 2), and pairs
    // agreeing on both are the same sum over (pred, truth) groups.
    // O(n log n), exactly equal to the old all-pairs loop.
    const auto &pred = clustering.clusterOf;
    const size_t n = pred.size();
    if (truth.size() != n)
        throw std::invalid_argument(
            "scoreClustering: " + std::to_string(truth.size()) +
            " truth labels for " + std::to_string(n) + " reads");

    auto pairsWithin = [](auto &sorted) {
        size_t pairs = 0;
        for (size_t i = 0; i < sorted.size();) {
            size_t j = i;
            while (j < sorted.size() && sorted[j] == sorted[i])
                ++j;
            pairs += (j - i) * (j - i - 1) / 2;
            i = j;
        }
        return pairs;
    };

    std::vector<size_t> by_pred(pred);
    std::sort(by_pred.begin(), by_pred.end());
    size_t same_pred = pairsWithin(by_pred);

    std::vector<size_t> by_truth(truth);
    std::sort(by_truth.begin(), by_truth.end());
    size_t same_truth = pairsWithin(by_truth);

    std::vector<std::pair<size_t, size_t>> both(n);
    for (size_t i = 0; i < n; ++i)
        both[i] = { pred[i], truth[i] };
    std::sort(both.begin(), both.end());
    size_t same_both = pairsWithin(both);

    ClusterQuality q;
    q.precision = same_pred ? double(same_both) / double(same_pred)
                            : 1.0;
    q.recall = same_truth ? double(same_both) / double(same_truth)
                          : 1.0;
    return q;
}

} // namespace dnastore
