// The channel's threshold walk (channel/walk.hh) against the frozen
// double-compare loops of channel_reference.hh: byte-equal reads,
// equal event counts and an equal generator state afterwards, for
// every transmit entry point, ProfileChannel generation (flat, ramped
// and clamped, PCR on and off) and aging. FUZZ_ITERS scales the
// iteration counts.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "channel/aging.hh"
#include "channel/ids_channel.hh"
#include "channel/read_pool.hh"
#include "channel/stressors.hh"
#include "channel_reference.hh"
#include "fuzz_iters.hh"
#include "util/rng.hh"

namespace dnastore {
namespace {

/** Probabilities at the edges of the threshold conversion. */
const double kEdgeRates[] = {
    0.0,
    1.0,
    std::nextafter(1.0, 0.0),
    0.5, // p * 2^53 is an integer: k = 2^52 must not fire
    1e-300,
    std::numeric_limits<double>::denorm_min(),
};
constexpr size_t kEdgeCount = sizeof(kEdgeRates) / sizeof(kEdgeRates[0]);

double
drawRate(Rng &rng)
{
    switch (rng.nextBelow(4)) {
    case 0:
        return kEdgeRates[rng.nextBelow(kEdgeCount)];
    case 1:
        return rng.nextDouble();
    default:
        return rng.nextDouble() * 0.1;
    }
}

/** A valid model: rates are zeroed from the back until total() <= 1. */
ErrorModel
drawModel(Rng &rng)
{
    ErrorModel m =
        ErrorModel::custom(drawRate(rng), drawRate(rng), drawRate(rng));
    if (m.check() != nullptr)
        m.substitution = 0.0;
    if (m.check() != nullptr)
        m.deletion = 0.0;
    return m;
}

size_t
drawLength(Rng &rng)
{
    static const size_t kLengths[] = { 0, 1, 2, 455 };
    return rng.nextBelow(2) ? kLengths[rng.nextBelow(4)]
                            : size_t(rng.nextBelow(200));
}

Strand
randomStrand(size_t len, Rng &rng)
{
    Strand s(len);
    for (auto &b : s)
        b = baseFromBits(unsigned(rng.nextBelow(4)));
    return s;
}

void
expectSameEvents(const ChannelEvents &a, const ChannelEvents &b)
{
    EXPECT_EQ(a.insertions, b.insertions);
    EXPECT_EQ(a.deletions, b.deletions);
    EXPECT_EQ(a.substitutions, b.substitutions);
}

void
expectSameArena(const StrandArena &a, const StrandArena &b)
{
    ASSERT_EQ(a.strandCount(), b.strandCount());
    for (size_t i = 0; i < a.strandCount(); ++i)
        EXPECT_TRUE(a.view(i) == b.view(i)) << "strand " << i;
}

/** Both generators must continue with the same draw. */
void
expectSameState(Rng &a, Rng &b)
{
    EXPECT_EQ(a.next(), b.next());
}

TEST(WalkDifferential, IdsChannelMatchesReference)
{
    Rng meta(1);
    for (int iter = 0; iter < fuzzIters(1000); ++iter) {
        SCOPED_TRACE(iter);
        const ErrorModel m = drawModel(meta);
        const IdsChannel ch(m);
        const Strand input = randomStrand(drawLength(meta), meta);
        const uint64_t seed = meta.next();

        {
            Rng a(seed), b(seed);
            ChannelEvents ea, eb;
            Strand got = ch.transmit(input, a, &ea);
            Strand want;
            reference::idsTransmitInto(m, input, b, want, &eb);
            EXPECT_EQ(got, want);
            expectSameEvents(ea, eb);
            expectSameState(a, b);
        }
        {
            // A dirty output buffer and pre-counted events: the walk
            // clears the one and adds to the other.
            Rng a(seed), b(seed);
            ChannelEvents ea, eb;
            ea.insertions = eb.insertions = 3;
            Strand got = randomStrand(7, meta), want;
            ch.transmitInto(input, a, got, &ea);
            reference::idsTransmitInto(m, input, b, want, &eb);
            EXPECT_EQ(got, want);
            expectSameEvents(ea, eb);
            expectSameState(a, b);
        }
        {
            const Strand prefix = randomStrand(drawLength(meta), meta);
            Rng a(seed), b(seed);
            ChannelEvents ea, eb;
            StrandArena got, want;
            got.append(prefix);
            want.append(prefix);
            ch.transmitAppend(input, a, got, &ea);
            reference::idsTransmitAppend(m, input, b, want, &eb);
            expectSameArena(got, want);
            expectSameEvents(ea, eb);
            expectSameState(a, b);
        }
        {
            const size_t n = size_t(meta.nextBelow(13));
            Rng a(seed), b(seed);
            StrandArena got, want;
            ch.transmitClusterInto(input, n, a, got);
            ch.transmitClusterInto(input, n, a, got);
            for (size_t i = 0; i < 2 * n; ++i)
                reference::idsTransmitAppend(m, input, b, want, nullptr);
            expectSameArena(got, want);
            expectSameState(a, b);
        }
    }
}

ChannelProfile
drawProfile(Rng &rng)
{
    ChannelProfile p;
    p.base = drawModel(rng);
    switch (rng.nextBelow(4)) {
    case 0:
        break; // flat
    case 1:
        p.ramp = PositionalRamp{ rng.nextDouble(), 5.0 * rng.nextDouble() };
        break;
    case 2:
        p.ramp = PositionalRamp{ rng.nextDouble(), 0.0 };
        break;
    default:
        p.ramp = PositionalRamp{ rng.nextDouble() * 0.5, 50.0 }; // clamps
        break;
    }
    if (rng.nextBelow(2)) {
        p.pcr.cycles = 1 + size_t(rng.nextBelow(8));
        p.pcr.efficiency = drawRate(rng);
        p.pcr.errorRate = drawRate(rng);
        p.pcr.maxLineage = 1 + size_t(rng.nextBelow(64));
    }
    return p;
}

TEST(WalkDifferential, ProfileChannelMatchesReference)
{
    Rng meta(2);
    for (int iter = 0; iter < fuzzIters(1000); ++iter) {
        SCOPED_TRACE(iter);
        const ChannelProfile profile = drawProfile(meta);
        const ProfileChannel ch(profile);
        const uint64_t seed = meta.next();

        // Several clusters of mixed lengths into one arena, the way a
        // trial builds its batch.
        Rng a(seed), b(seed);
        StrandArena got, want;
        const size_t clusters = 1 + size_t(meta.nextBelow(4));
        for (size_t c = 0; c < clusters; ++c) {
            const Strand ref = randomStrand(drawLength(meta), meta);
            const size_t n = size_t(meta.nextBelow(13));
            ch.generateCluster(ref, n, a, got);
            reference::generateCluster(profile, ref, n, b, want);
        }
        const Strand single = randomStrand(drawLength(meta), meta);
        ch.transmitAppend(single, a, got);
        reference::profileTransmitAppend(profile, single, b, want);
        expectSameArena(got, want);
        expectSameState(a, b);
    }
}

TEST(WalkDifferential, AgingMatchesReference)
{
    Rng meta(3);
    for (int iter = 0; iter < fuzzIters(200); ++iter) {
        SCOPED_TRACE(iter);
        const size_t max_coverage = 1 + size_t(meta.nextBelow(8));
        std::vector<std::vector<Strand>> clusters(
            1 + size_t(meta.nextBelow(12)));
        for (auto &reads : clusters) {
            reads.resize(size_t(meta.nextBelow(max_coverage + 1)));
            for (auto &read : reads)
                read = randomStrand(drawLength(meta), meta);
        }
        const ReadStorage storage =
            meta.nextBelow(2) ? ReadStorage::Flat : ReadStorage::Packed;
        AgingProfile aging;
        aging.strandLossRate = meta.nextBelow(2) ? drawRate(meta) : 0.0;
        aging.substitutionRate = drawRate(meta);
        const uint64_t seed = meta.next();

        ReadPool got(clusters, max_coverage, storage);
        ReadPool want(clusters, max_coverage, storage);
        const size_t threads = 1 + size_t(meta.nextBelow(2));
        EXPECT_EQ(agePoolEpoch(got, aging, seed, threads),
                  reference::agePoolEpoch(want, aging, seed));
        EXPECT_EQ(got.snapshot(), want.snapshot());
    }
}

/** (k < T) must equal (k * 2^-53 < p) on both sides of T. */
void
expectExactThreshold(double p)
{
    const uint64_t t = drawThreshold(p);
    const uint64_t one = uint64_t(1) << 53;
    ASSERT_LE(t, one) << p;
    for (uint64_t k : { t - 1, t, t + 1 }) {
        if (k >= one) // also the wrapped t - 1 at t == 0
            continue;
        EXPECT_EQ(k < t, double(k) * 0x1p-53 < p)
            << "p " << p << " k " << k << " T " << t;
    }
}

TEST(DrawThreshold, MatchesDoubleCompareAtTheBoundary)
{
    for (double p : kEdgeRates)
        expectExactThreshold(p);
    expectExactThreshold(-0.25);
    expectExactThreshold(2.0);
    EXPECT_EQ(drawThreshold(0.0), 0u);
    EXPECT_EQ(drawThreshold(-1.0), 0u);
    EXPECT_EQ(drawThreshold(std::nan("")), 0u);
    EXPECT_EQ(drawThreshold(1.0), uint64_t(1) << 53);
    EXPECT_EQ(drawThreshold(0.5), uint64_t(1) << 52);
    EXPECT_EQ(drawThreshold(std::numeric_limits<double>::denorm_min()),
              1u);

    Rng rng(4);
    for (int iter = 0; iter < fuzzIters(20000); ++iter) {
        double p;
        switch (rng.nextBelow(3)) {
        case 0:
            p = rng.nextDouble(); // on the 2^-53 grid
            break;
        case 1:
            // Off the grid: any mantissa at a random scale in (0, 1).
            p = std::ldexp(1.0 + rng.nextDouble(),
                           -1 - int(rng.nextBelow(80)));
            break;
        default:
            p = (rng.next() >> 11) * 0x1p-53 +
                std::ldexp(rng.nextDouble(), -54);
            break;
        }
        expectExactThreshold(p);
    }
}

} // namespace
} // namespace dnastore
