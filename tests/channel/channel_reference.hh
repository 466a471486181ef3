/**
 * @file
 * Frozen reference channel walks for the differential suite.
 *
 * Plain loops that draw `nextDouble()` per base and compare it with
 * double probabilities, exactly as the channel sampled before it moved
 * to integer thresholds and one shared walk (channel/walk.hh). The
 * library must reproduce these byte for byte: same reads, same event
 * counts, same generator state afterwards. Do not optimize them.
 */

#ifndef DNASTORE_TESTS_CHANNEL_CHANNEL_REFERENCE_HH
#define DNASTORE_TESTS_CHANNEL_CHANNEL_REFERENCE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "channel/ids_channel.hh"
#include "channel/read_pool.hh"
#include "channel/stressors.hh"
#include "dna/packed_strand.hh"
#include "util/rng.hh"

namespace dnastore {
namespace reference {

/** The per-base walk: at most one of {insert, delete, substitute}. */
template <typename Push>
void
transmitCore(StrandView input, Rng &rng, double p_ins, double p_del,
             double p_sub, ChannelEvents *events, Push &&push)
{
    for (Base b : input) {
        double u = rng.nextDouble();
        if (u < p_ins) {
            push(baseFromBits(unsigned(rng.nextBelow(4))));
            push(b);
            if (events)
                ++events->insertions;
        } else if (u < p_del) {
            if (events)
                ++events->deletions;
        } else if (u < p_sub) {
            unsigned offset = 1u + unsigned(rng.nextBelow(3));
            push(baseFromBits(bitsFromBase(b) + offset));
            if (events)
                ++events->substitutions;
        } else {
            push(b);
        }
    }
}

/** IdsChannel::transmitInto. */
inline void
idsTransmitInto(const ErrorModel &m, StrandView input, Rng &rng,
                Strand &out, ChannelEvents *events)
{
    out.clear();
    const double p_ins = m.insertion;
    const double p_del = p_ins + m.deletion;
    const double p_sub = p_del + m.substitution;
    transmitCore(input, rng, p_ins, p_del, p_sub, events,
                 [&out](Base b) { out.push_back(b); });
}

/** IdsChannel::transmitAppend. */
inline void
idsTransmitAppend(const ErrorModel &m, StrandView input, Rng &rng,
                  StrandArena &out, ChannelEvents *events)
{
    Strand read;
    idsTransmitInto(m, input, rng, read, events);
    out.append(read);
}

/** ProfileChannel::transmitAppend: the ramped, clamped walk. */
inline void
profileTransmitAppend(const ChannelProfile &profile, StrandView input,
                      Rng &rng, StrandArena &out)
{
    const ErrorModel &m = profile.base;
    const size_t len = input.size();
    Strand read;
    for (size_t i = 0; i < len; ++i) {
        Base b = input[i];
        double mult = profile.ramp.multiplierAt(i, len);
        double p_ins = m.insertion * mult;
        double p_del = p_ins + m.deletion * mult;
        double p_sub = p_del + m.substitution * mult;
        if (p_sub > 1.0) {
            double scale = 1.0 / p_sub;
            p_ins *= scale;
            p_del *= scale;
            p_sub = 1.0;
        }
        double u = rng.nextDouble();
        if (u < p_ins) {
            read.push_back(baseFromBits(unsigned(rng.nextBelow(4))));
            read.push_back(b);
        } else if (u < p_del) {
            // dropped
        } else if (u < p_sub) {
            unsigned offset = 1u + unsigned(rng.nextBelow(3));
            read.push_back(baseFromBits(bitsFromBase(b) + offset));
        } else {
            read.push_back(b);
        }
    }
    out.append(read);
}

/** ProfileChannel::generateCluster, PCR lineage pool included. */
inline void
generateCluster(const ChannelProfile &profile, StrandView reference,
                size_t n, Rng &rng, StrandArena &out)
{
    if (!profile.pcr.enabled()) {
        for (size_t i = 0; i < n; ++i)
            profileTransmitAppend(profile, reference, rng, out);
        return;
    }
    const PcrProfile &pcr = profile.pcr;
    std::vector<Strand> pool;
    pool.push_back(reference.toStrand());
    for (size_t cycle = 0; cycle < pcr.cycles; ++cycle) {
        size_t round_size = pool.size();
        for (size_t t = 0; t < round_size; ++t) {
            if (pool.size() >= pcr.maxLineage)
                break;
            if (rng.nextDouble() >= pcr.efficiency)
                continue;
            Strand copy = pool[t];
            for (auto &base : copy) {
                if (rng.nextDouble() < pcr.errorRate) {
                    unsigned offset = 1u + unsigned(rng.nextBelow(3));
                    base = baseFromBits(bitsFromBase(base) + offset);
                }
            }
            pool.push_back(std::move(copy));
        }
    }
    for (size_t i = 0; i < n; ++i) {
        const Strand &tmpl = pool[rng.nextBelow(pool.size())];
        profileTransmitAppend(profile, tmpl, rng, out);
    }
}

/** agePoolEpoch, serial. Returns the reads lost. */
inline size_t
agePoolEpoch(ReadPool &pool, const AgingProfile &aging,
             uint64_t epoch_seed)
{
    if (!aging.enabled())
        return 0;
    Rng base(epoch_seed);
    std::vector<uint64_t> seeds(pool.clusters());
    for (auto &s : seeds)
        s = base.next();
    size_t lost = 0;
    for (size_t c = 0; c < pool.clusters(); ++c) {
        Rng rng(seeds[c]);
        const size_t before = pool.clusterSize(c);
        std::vector<Strand> survivors = pool.reads(c, before);
        std::vector<Strand> aged;
        for (auto &read : survivors) {
            if (rng.nextDouble() < aging.strandLossRate)
                continue;
            if (aging.substitutionRate > 0.0) {
                for (auto &b : read) {
                    if (rng.nextDouble() < aging.substitutionRate) {
                        unsigned offset = 1u + unsigned(rng.nextBelow(3));
                        b = baseFromBits(bitsFromBase(b) + offset);
                    }
                }
            }
            aged.push_back(std::move(read));
        }
        lost += before - aged.size();
        pool.replaceCluster(c, aged);
    }
    return lost;
}

} // namespace reference
} // namespace dnastore

#endif // DNASTORE_TESTS_CHANNEL_CHANNEL_REFERENCE_HH
