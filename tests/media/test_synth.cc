#include <gtest/gtest.h>

#include "media/synth.hh"
#include "util/stats.hh"

namespace dnastore {
namespace {

TEST(Synth, DeterministicForSeed)
{
    auto a = generateSyntheticPhoto(64, 48, 7);
    auto b = generateSyntheticPhoto(64, 48, 7);
    EXPECT_EQ(a.pixels(), b.pixels());
}

TEST(Synth, DifferentSeedsGiveDifferentScenes)
{
    auto a = generateSyntheticPhoto(64, 64, 1);
    auto b = generateSyntheticPhoto(64, 64, 2);
    EXPECT_NE(a.pixels(), b.pixels());
}

TEST(Synth, RequestedShape)
{
    auto img = generateSyntheticPhoto(33, 17, 3);
    EXPECT_EQ(img.width(), 33u);
    EXPECT_EQ(img.height(), 17u);
}

TEST(Synth, PhotoHasSpatialCorrelation)
{
    // Photo-like content: neighboring pixels are far more similar than
    // random pairs (this is what makes DCT compression effective).
    auto img = generateSyntheticPhoto(128, 128, 11);
    RunningStat neighbor_diff, random_diff;
    for (size_t y = 0; y < 128; ++y)
        for (size_t x = 0; x + 1 < 128; ++x)
            neighbor_diff.add(std::abs(double(img.at(x, y)) -
                                       double(img.at(x + 1, y))));
    for (size_t i = 0; i < 128 * 127; ++i) {
        size_t x1 = (i * 37) % 128, y1 = (i * 61) % 128;
        size_t x2 = (i * 89 + 5) % 128, y2 = (i * 17 + 9) % 128;
        random_diff.add(std::abs(double(img.at(x1, y1)) -
                                 double(img.at(x2, y2))));
    }
    EXPECT_LT(neighbor_diff.mean() * 3.0, random_diff.mean());
}

TEST(Synth, PhotoUsesReasonableDynamicRange)
{
    auto img = generateSyntheticPhoto(96, 96, 5);
    RunningStat s;
    for (uint8_t p : img.pixels())
        s.add(double(p));
    EXPECT_GT(s.max() - s.min(), 40.0);
    EXPECT_GT(s.mean(), 30.0);
    EXPECT_LT(s.mean(), 225.0);
}

} // namespace
} // namespace dnastore
