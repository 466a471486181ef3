#include "channel/aging.hh"

#include <atomic>
#include <vector>

#include "channel/walk.hh"
#include "util/parallel.hh"

namespace dnastore {

size_t
agePoolEpoch(ReadPool &pool, const AgingProfile &aging,
             uint64_t epoch_seed, size_t num_threads)
{
    if (!aging.enabled())
        return 0;

    // Per-cluster seeds come from one serial stream, exactly like
    // ReadPool generation: the decay never depends on the worker
    // count or schedule.
    Rng base(epoch_seed);
    std::vector<uint64_t> seeds(pool.clusters());
    for (auto &s : seeds)
        s = base.next();

    const uint64_t sub_threshold = drawThreshold(aging.substitutionRate);
    std::atomic<size_t> lost{ 0 };
    parallelFor(pool.clusters(), num_threads, [&](size_t c) {
        Rng rng(seeds[c]);
        const size_t before = pool.clusterSize(c);
        std::vector<Strand> survivors = pool.reads(c, before);
        std::vector<Strand> aged;
        aged.reserve(survivors.size());
        for (auto &read : survivors) {
            // One uniform per read decides survival; survivors then
            // draw one uniform per base. A dropped read still
            // consumed only its survival draw, so the per-read
            // streams stay aligned whatever the loss pattern.
            if (rng.nextDouble() < aging.strandLossRate)
                continue;
            if (aging.substitutionRate > 0.0)
                substituteWalk(read.data(), read.size(), rng,
                               sub_threshold);
            aged.push_back(std::move(read));
        }
        lost.fetch_add(before - aged.size(),
                       std::memory_order_relaxed);
        pool.replaceCluster(c, aged);
    });
    return lost.load();
}

} // namespace dnastore
