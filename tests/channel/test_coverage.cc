#include <gtest/gtest.h>

#include <limits>

#include "channel/coverage.hh"

namespace dnastore {
namespace {

TEST(Coverage, FixedAlwaysReturnsSameCount)
{
    Rng rng(1);
    auto model = CoverageModel::fixed(5);
    EXPECT_TRUE(model.isFixed());
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(model.sample(rng), 5u);
}

TEST(Coverage, FixedZeroRejected)
{
    EXPECT_THROW(CoverageModel::fixed(0), std::invalid_argument);
    EXPECT_STREQ(CoverageModel::checkFixed(0), "coverage must be >= 1");
    EXPECT_EQ(CoverageModel::checkFixed(1), nullptr);
}

TEST(Coverage, GammaBadParamsRejected)
{
    EXPECT_THROW(CoverageModel::gamma(0.0, 2.0), std::invalid_argument);
    EXPECT_THROW(CoverageModel::gamma(5.0, -1.0), std::invalid_argument);
}

TEST(Coverage, GammaMeanApproximatelyCorrect)
{
    Rng rng(2);
    auto model = CoverageModel::gamma(10.0, 4.0);
    EXPECT_FALSE(model.isFixed());
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += double(model.sample(rng));
    EXPECT_NEAR(sum / n, 10.0, 0.2);
}

TEST(Coverage, GammaNeverReturnsZero)
{
    Rng rng(3);
    // Low mean, low shape: lots of mass near zero before clamping.
    auto model = CoverageModel::gamma(1.2, 0.8);
    for (int i = 0; i < 20000; ++i)
        EXPECT_GE(model.sample(rng), 1u);
}

TEST(Coverage, AccessorsReflectConfiguration)
{
    auto fixed = CoverageModel::fixed(7);
    EXPECT_TRUE(fixed.isFixed());
    EXPECT_DOUBLE_EQ(fixed.mean(), 7.0);

    auto gamma = CoverageModel::gamma(6.5, 3.0);
    EXPECT_FALSE(gamma.isFixed());
    EXPECT_DOUBLE_EQ(gamma.mean(), 6.5);
}

TEST(Coverage, FixedOneAlwaysSamplesOne)
{
    // The degenerate-but-legal floor: a cluster that exists has at
    // least one read.
    Rng rng(7);
    auto model = CoverageModel::fixed(1);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(model.sample(rng), 1u);
}

TEST(Coverage, GammaTinyShapeStillClampsToOne)
{
    // Shape far below 1 puts almost all mass near zero; the clamp
    // must still never emit a zero-read cluster.
    Rng rng(8);
    auto model = CoverageModel::gamma(2.0, 0.05);
    size_t clamped = 0;
    for (int i = 0; i < 5000; ++i) {
        size_t n = model.sample(rng);
        EXPECT_GE(n, 1u);
        clamped += n == 1 ? 1 : 0;
    }
    // The clamp actually fires for this parameterization.
    EXPECT_GT(clamped, 2500u);
}

TEST(Coverage, GammaRejectsNonFiniteEdges)
{
    EXPECT_THROW(CoverageModel::gamma(-3.0, 2.0),
                 std::invalid_argument);
    EXPECT_THROW(CoverageModel::gamma(5.0, 0.0),
                 std::invalid_argument);
    // NaN is not <= 0, so only an explicit finiteness gate stops it.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(CoverageModel::gamma(nan, 2.0), std::invalid_argument);
    EXPECT_STREQ(CoverageModel::checkGamma(nan, 2.0),
                 "gamma-mean must be finite");
    EXPECT_STREQ(CoverageModel::checkGamma(8.0, nan),
                 "gamma-shape must be finite");
    EXPECT_EQ(CoverageModel::checkGamma(8.0, 2.0), nullptr);
    // With both broken, the mean is reported first.
    EXPECT_STREQ(CoverageModel::checkGamma(-5.0, 0.0),
                 "gamma-mean must be > 0");
    EXPECT_STREQ(CoverageModel::checkGamma(-5.0, nan),
                 "gamma-mean must be > 0");
}

TEST(Coverage, GammaSpreadShrinksWithShape)
{
    // Variance of Gamma(mean, shape) is mean^2 / shape.
    Rng rng(4);
    auto loose = CoverageModel::gamma(20.0, 2.0);
    auto tight = CoverageModel::gamma(20.0, 50.0);
    auto sample_var = [&rng](const CoverageModel &m) {
        const int n = 20000;
        double sum = 0, sumsq = 0;
        for (int i = 0; i < n; ++i) {
            double v = double(m.sample(rng));
            sum += v;
            sumsq += v * v;
        }
        double mean = sum / n;
        return sumsq / n - mean * mean;
    };
    EXPECT_GT(sample_var(loose), 2.0 * sample_var(tight));
}

} // namespace
} // namespace dnastore
