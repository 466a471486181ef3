#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>

#include "api/options.hh"
#include "channel/ids_channel.hh"
#include "channel/stressors.hh"
#include "dna/strand.hh"
#include "util/rng.hh"

namespace dnastore {
namespace {

Strand
randomStrand(size_t len, Rng &rng)
{
    Strand s(len);
    for (auto &b : s)
        b = baseFromBits(unsigned(rng.nextBelow(4)));
    return s;
}

TEST(PositionalRamp, DisabledIsFlat)
{
    PositionalRamp ramp; // defaults: startFrac 1.0
    EXPECT_FALSE(ramp.enabled());
    for (size_t i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(ramp.multiplierAt(i, 100), 1.0);
}

TEST(PositionalRamp, RampShape)
{
    PositionalRamp ramp{ 0.5, 3.0 };
    ASSERT_TRUE(ramp.enabled());
    const size_t len = 101;
    // Flat before the knee, endMultiplier at the last base, monotone
    // in between.
    EXPECT_DOUBLE_EQ(ramp.multiplierAt(0, len), 1.0);
    EXPECT_DOUBLE_EQ(ramp.multiplierAt(50, len), 1.0);
    EXPECT_DOUBLE_EQ(ramp.multiplierAt(len - 1, len), 3.0);
    double prev = 0.0;
    for (size_t i = 0; i < len; ++i) {
        double m = ramp.multiplierAt(i, len);
        EXPECT_GE(m, prev);
        prev = m;
    }
    // Midpoint of the ramped half sits midway up the ramp.
    EXPECT_NEAR(ramp.multiplierAt(75, len), 2.0, 0.05);
}

TEST(PositionalRamp, Validation)
{
    EXPECT_EQ((PositionalRamp{ 0.5, 3.0 }).check(), nullptr);
    EXPECT_NE((PositionalRamp{ -0.1, 3.0 }).check(), nullptr);
    EXPECT_NE((PositionalRamp{ 1.5, 3.0 }).check(), nullptr);
    EXPECT_NE((PositionalRamp{ 0.5, -1.0 }).check(), nullptr);
}

TEST(ProfileChannel, FlatProfileMatchesIdsChannelBitForBit)
{
    // With every stressor disabled, ProfileChannel must draw the
    // exact RNG walk of IdsChannel — profiles degrade gracefully to
    // the paper's channel.
    ErrorModel model = ErrorModel::custom(0.02, 0.03, 0.04);
    IdsChannel ids(model);
    ProfileChannel profile(ChannelProfile{ model, {}, {}, {}, {} });

    Rng strand_rng(11);
    for (int iter = 0; iter < 20; ++iter) {
        Strand input = randomStrand(40 + strand_rng.nextBelow(200),
                                    strand_rng);
        Rng a(1000 + uint64_t(iter));
        Rng b(1000 + uint64_t(iter));
        StrandArena ia, pa;
        ids.transmitAppend(input, a, ia);
        profile.transmitAppend(input, b, pa);
        ASSERT_EQ(ia.strandCount(), pa.strandCount());
        EXPECT_TRUE(ia.view(0) == pa.view(0)) << "iter " << iter;
    }
}

TEST(ProfileChannel, RampConcentratesErrorsInTail)
{
    // Substitution-only channel keeps lengths equal, so per-position
    // mismatches are directly comparable: with a 4x tail ramp the
    // tail half must take clearly more errors than the head half.
    ChannelProfile profile;
    profile.base = ErrorModel::substitutionOnly(0.03);
    profile.ramp = PositionalRamp{ 0.5, 4.0 };
    ProfileChannel channel(profile);

    Rng rng(5);
    Strand input = randomStrand(200, rng);
    size_t head_errors = 0, tail_errors = 0;
    StrandArena arena;
    for (int rep = 0; rep < 400; ++rep) {
        arena.clear();
        channel.transmitAppend(input, rng, arena);
        StrandView out = arena.view(0);
        ASSERT_EQ(out.size(), input.size());
        for (size_t i = 0; i < input.size(); ++i) {
            if (out[i] != input[i])
                (i < input.size() / 2 ? head_errors : tail_errors)++;
        }
    }
    EXPECT_GT(tail_errors, 2 * head_errors);
}

TEST(ProfileChannel, ExtremeRampClampsToValidProbabilities)
{
    // Base total 0.9 ramped 10x would be "probability 9": the clamp
    // keeps the walk well-defined (an error becomes certain instead).
    ChannelProfile profile;
    profile.base = ErrorModel::uniform(0.9);
    profile.ramp = PositionalRamp{ 0.0, 10.0 };
    ProfileChannel channel(profile);
    Rng rng(6);
    Strand input = randomStrand(150, rng);
    StrandArena arena;
    channel.transmitAppend(input, rng, arena);
    // Insertions keep the original base, so output length is bounded
    // by 2x input even when every position errors.
    EXPECT_LE(arena.view(0).size(), 2 * input.size());
}

TEST(Dropout, DisabledLeavesCountsAlone)
{
    std::vector<size_t> counts(50, 7);
    Rng rng(1);
    applyDropout(DropoutProfile{}, rng, counts);
    for (size_t c : counts)
        EXPECT_EQ(c, 7u);
}

TEST(Dropout, CertainDropoutZerosEverything)
{
    std::vector<size_t> counts(50, 7);
    Rng rng(1);
    applyDropout(DropoutProfile{ 1.0, 1 }, rng, counts);
    for (size_t c : counts)
        EXPECT_EQ(c, 0u);
}

TEST(Dropout, BurstsEraseConsecutiveRuns)
{
    std::vector<size_t> counts(4000, 5);
    Rng rng(3);
    const size_t burst = 4;
    applyDropout(DropoutProfile{ 0.02, burst }, rng, counts);
    size_t zeros = 0;
    size_t run = 0;
    for (size_t i = 0; i < counts.size(); ++i) {
        if (counts[i] == 0) {
            ++zeros;
            ++run;
        } else {
            // Every maximal zero-run is made of whole bursts (merged
            // runs only grow), except a burst truncated by the end of
            // the vector — excluded by the i < size() branch here.
            if (run > 0) {
                EXPECT_GE(run, burst) << "at " << i;
            }
            run = 0;
        }
    }
    EXPECT_GT(zeros, 0u);
    EXPECT_LT(zeros, counts.size());
}

TEST(Dropout, DeterministicForSeed)
{
    std::vector<size_t> a(500, 3), b(500, 3);
    Rng ra(9), rb(9);
    applyDropout(DropoutProfile{ 0.1, 2 }, ra, a);
    applyDropout(DropoutProfile{ 0.1, 2 }, rb, b);
    EXPECT_EQ(a, b);
}

TEST(Pcr, LineagesShareMutations)
{
    // Noise-free sequencing over a heavily amplified pool: every read
    // equals its template, so distinct read sequences are bounded by
    // the lineage cap — proof that reads are *not* independent draws.
    ChannelProfile profile;
    profile.base = ErrorModel::custom(0.0, 0.0, 0.0);
    profile.pcr.cycles = 6;
    profile.pcr.efficiency = 1.0;
    profile.pcr.errorRate = 0.02;
    profile.pcr.maxLineage = 16;
    ProfileChannel channel(profile);

    Rng rng(21);
    Strand reference = randomStrand(120, rng);
    StrandArena arena;
    Rng gen(22);
    channel.generateCluster(reference, 60, gen, arena);
    ASSERT_EQ(arena.strandCount(), 60u);

    std::set<std::string> distinct;
    size_t mutated = 0;
    for (size_t i = 0; i < arena.strandCount(); ++i) {
        Strand read = arena.view(i).toStrand();
        distinct.insert(strandToString(read));
        if (read != reference)
            ++mutated;
    }
    EXPECT_LE(distinct.size(), profile.pcr.maxLineage);
    EXPECT_LT(distinct.size(), 60u);
    EXPECT_GT(mutated, 0u);
}

TEST(Pcr, DisabledMeansIndependentReadsOfReference)
{
    ChannelProfile profile; // all stressors off, zero error rates
    ProfileChannel channel(profile);
    Rng rng(30);
    Strand reference = randomStrand(80, rng);
    StrandArena arena;
    channel.generateCluster(reference, 10, rng, arena);
    ASSERT_EQ(arena.strandCount(), 10u);
    for (size_t i = 0; i < 10; ++i)
        EXPECT_TRUE(arena.view(i) == StrandView(reference));
}

TEST(Pcr, DeterministicForSeed)
{
    ChannelProfile profile;
    profile.base = ErrorModel::uniform(0.03);
    profile.pcr.cycles = 5;
    profile.pcr.efficiency = 0.5;
    profile.pcr.errorRate = 0.01;
    ProfileChannel channel(profile);
    Rng rng(40);
    Strand reference = randomStrand(100, rng);
    StrandArena a, b;
    Rng ga(41), gb(41);
    channel.generateCluster(reference, 20, ga, a);
    channel.generateCluster(reference, 20, gb, b);
    ASSERT_EQ(a.strandCount(), b.strandCount());
    for (size_t i = 0; i < a.strandCount(); ++i)
        EXPECT_TRUE(a.view(i) == b.view(i));
}

TEST(ChannelProfile, ValidationRejectsBrokenComponents)
{
    // One rule: the builder and the channel reject every row with the
    // same rule text, and a bad component is named even when its
    // stressor is otherwise disabled.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    ChannelProfile good;
    good.base = ErrorModel::uniform(0.03);
    EXPECT_EQ(good.check(), nullptr);
    EXPECT_NO_THROW(ProfileChannel{ good });
    EXPECT_TRUE(api::ChannelOptions().profile(good).validate().ok());

    struct Row
    {
        const char *rule;
        std::function<void(ChannelProfile &)> breakIt;
    };
    const Row rows[] = {
        { "ins-rate must be finite",
          [&](ChannelProfile &p) { p.base.insertion = nan; } },
        { "del-rate must be finite",
          [&](ChannelProfile &p) { p.base.deletion = inf; } },
        { "sub-rate must be finite",
          [&](ChannelProfile &p) { p.base.substitution = -inf; } },
        { "del-rate must be >= 0",
          [](ChannelProfile &p) { p.base.deletion = -0.01; } },
        { "error rates must total at most 1",
          [](ChannelProfile &p) {
              p.base = ErrorModel::custom(0.5, 0.4, 0.2);
          } },
        { "ramp startFrac and endMultiplier must be finite",
          [&](ChannelProfile &p) { p.ramp = { 0.5, inf }; } },
        { "ramp startFrac and endMultiplier must be finite",
          [&](ChannelProfile &p) { p.ramp.startFrac = nan; } },
        { "ramp startFrac must be in [0, 1]",
          [](ChannelProfile &p) { p.ramp.startFrac = 2.0; } },
        { "ramp endMultiplier must be >= 0",
          [](ChannelProfile &p) { p.ramp = { 0.5, -1.0 }; } },
        { "pcr efficiency and errorRate must be finite",
          [&](ChannelProfile &p) { p.pcr.efficiency = nan; } },
        { "pcr efficiency must be in [0, 1]",
          [](ChannelProfile &p) { p.pcr.efficiency = 1.5; } },
        { "pcr errorRate must be in [0, 1]",
          [](ChannelProfile &p) { p.pcr.errorRate = -0.1; } },
        { "pcr cycles must be at most 64",
          [](ChannelProfile &p) { p.pcr.cycles = SIZE_MAX; } },
        { "pcr cycles must be at most 64",
          [](ChannelProfile &p) { p.pcr.cycles = 65; } },
        { "pcr maxLineage must be >= 1",
          [](ChannelProfile &p) { p.pcr.maxLineage = 0; } },
        { "dropout rate must be finite",
          [&](ChannelProfile &p) { p.dropout.rate = nan; } },
        { "dropout rate must be in [0, 1]",
          [](ChannelProfile &p) { p.dropout.rate = -0.5; } },
        { "dropout burstLen must be >= 1",
          [](ChannelProfile &p) { p.dropout = { 0.1, 0 }; } },
        { "aging rates must be finite",
          [&](ChannelProfile &p) { p.aging.substitutionRate = inf; } },
        { "aging strand-loss rate must be in [0, 1]",
          [](ChannelProfile &p) { p.aging.strandLossRate = 1.5; } },
        { "aging substitution rate must be in [0, 1]",
          [](ChannelProfile &p) { p.aging.substitutionRate = -0.1; } },
    };
    for (const Row &row : rows) {
        SCOPED_TRACE(row.rule);
        ChannelProfile bad = good;
        row.breakIt(bad);
        ASSERT_NE(bad.check(), nullptr);
        EXPECT_STREQ(bad.check(), row.rule);

        const api::Status status =
            api::ChannelOptions().profile(bad).validate();
        EXPECT_EQ(status.code(), api::StatusCode::InvalidArgument);
        EXPECT_EQ(status.message(), row.rule);

        try {
            ProfileChannel channel(bad);
            ADD_FAILURE() << "ProfileChannel accepted the profile";
        } catch (const std::invalid_argument &e) {
            EXPECT_EQ(std::string(e.what()),
                      std::string("ProfileChannel: ") + row.rule);
        }
    }
}

TEST(ArenaGrowth, ClusterAppendsReallocateLogarithmically)
{
    // A trial appends every cluster into one arena, and each
    // generateCluster / transmitClusterInto reserves "what the arena
    // holds plus this cluster". The arena must grow geometrically
    // under that pattern, not copy itself once per cluster.
    Rng rng(9);
    const Strand reference = randomStrand(72, rng);
    const ErrorModel model = ErrorModel::uniform(0.05);
    const ProfileChannel profile(ChannelProfile{ model, {}, {}, {}, {} });
    const IdsChannel ids(model);
    for (bool use_profile : { true, false }) {
        StrandArena arena;
        const Base *last = nullptr;
        size_t moves = 0;
        for (int c = 0; c < 1000; ++c) {
            if (use_profile)
                profile.generateCluster(reference, 12, rng, arena);
            else
                ids.transmitClusterInto(reference, 12, rng, arena);
            const Base *now = arena.view(0).data();
            if (last != nullptr && now != last)
                ++moves;
            last = now;
        }
        EXPECT_LE(moves, 64u) << (use_profile ? "ProfileChannel"
                                              : "IdsChannel");
    }
}

} // namespace
} // namespace dnastore
