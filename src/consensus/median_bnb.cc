#include "consensus/median_bnb.hh"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace dnastore {

namespace {

/** DFS state shared across the branch-and-bound recursion. */
struct Search
{
    const std::vector<Seq> &traces;
    size_t targetLen;
    unsigned sigma;
    size_t maxOptima;

    // rows[t] holds the DP row for trace t at the current depth:
    // rows[t][j] = edit distance(prefix, traces[t][0..j)).
    std::vector<std::vector<uint32_t>> rows;
    Seq prefix;

    size_t best = std::numeric_limits<size_t>::max();
    std::vector<Seq> optima;
    bool capped = false;

    explicit Search(const std::vector<Seq> &tr, size_t len, unsigned s,
                    size_t cap)
        : traces(tr), targetLen(len), sigma(s), maxOptima(cap)
    {
        rows.reserve(traces.size());
        for (const Seq &t : traces) {
            std::vector<uint32_t> row(t.size() + 1);
            for (size_t j = 0; j <= t.size(); ++j)
                row[j] = uint32_t(j);
            rows.push_back(std::move(row));
        }
        prefix.reserve(len);
    }

    /**
     * Admissible lower bound on the total cost of any completion of
     * the current prefix with exactly @p rem more symbols: matching a
     * suffix of length (m-j) with rem symbols costs at least
     * |rem - (m-j)| additional edits.
     */
    size_t
    lowerBound(size_t rem) const
    {
        size_t sum = 0;
        for (size_t t = 0; t < traces.size(); ++t) {
            const auto &row = rows[t];
            const size_t m = traces[t].size();
            uint64_t lb = std::numeric_limits<uint64_t>::max();
            for (size_t j = 0; j <= m; ++j) {
                uint64_t tail = uint64_t(std::llabs(
                    static_cast<long long>(rem) -
                    static_cast<long long>(m - j)));
                lb = std::min(lb, row[j] + tail);
            }
            sum += size_t(lb);
        }
        return sum;
    }

    void
    dfs()
    {
        const size_t depth = prefix.size();
        if (depth == targetLen) {
            size_t cost = 0;
            for (size_t t = 0; t < traces.size(); ++t)
                cost += rows[t][traces[t].size()];
            if (cost < best) {
                best = cost;
                optima.clear();
                capped = false;
            }
            if (cost == best) {
                if (optima.size() < maxOptima)
                    optima.push_back(prefix);
                else
                    capped = true;
            }
            return;
        }
        size_t lb = lowerBound(targetLen - depth);
        if (lb > best)
            return;

        std::vector<std::vector<uint32_t>> saved = rows;
        for (unsigned a = 0; a < sigma; ++a) {
            // Advance every DP row by symbol a.
            for (size_t t = 0; t < traces.size(); ++t) {
                const Seq &trace = traces[t];
                auto &row = rows[t];
                const auto &prev = saved[t];
                row[0] = prev[0] + 1;
                for (size_t j = 1; j <= trace.size(); ++j) {
                    uint32_t sub = prev[j - 1] +
                        (trace[j - 1] == a ? 0u : 1u);
                    row[j] = std::min({ prev[j] + 1, row[j - 1] + 1,
                                        sub });
                }
            }
            prefix.push_back(uint8_t(a));
            dfs();
            prefix.pop_back();
        }
        rows = std::move(saved);
    }
};

} // namespace

MedianResult
constrainedMedian(const std::vector<Seq> &traces, size_t target_len,
                  unsigned sigma, size_t max_optima)
{
    if (sigma < 2)
        throw std::invalid_argument("constrainedMedian: sigma < 2");
    for (const Seq &t : traces)
        for (uint8_t c : t)
            if (c >= sigma)
                throw std::invalid_argument(
                    "constrainedMedian: symbol out of alphabet");

    Search search(traces, target_len, sigma, max_optima);
    search.dfs();

    MedianResult result;
    result.cost = search.best;
    result.optima = std::move(search.optima);
    result.capped = search.capped;
    return result;
}

Seq
adversarialPick(const std::vector<Seq> &optima, const Seq &original)
{
    if (optima.empty())
        throw std::invalid_argument("adversarialPick: no candidates");
    const size_t len = original.size();
    long best_score = std::numeric_limits<long>::min();
    const Seq *best = &optima.front();
    for (const Seq &cand : optima) {
        long score = 0;
        size_t n = std::min(cand.size(), len);
        for (size_t i = 0; i < n; ++i) {
            // Centrality weight: 0 at the ends, maximal in the middle.
            long w = long(std::min(i, len - 1 - i));
            score += (cand[i] == original[i]) ? w : -w;
        }
        if (score > best_score) {
            best_score = score;
            best = &cand;
        }
    }
    return *best;
}

} // namespace dnastore
