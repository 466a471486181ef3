#include <gtest/gtest.h>

#include "channel/error_model.hh"

namespace dnastore {
namespace {

TEST(ErrorModel, UniformSplitsEvenly)
{
    auto m = ErrorModel::uniform(0.09);
    EXPECT_NEAR(m.insertion, 0.03, 1e-12);
    EXPECT_NEAR(m.deletion, 0.03, 1e-12);
    EXPECT_NEAR(m.substitution, 0.03, 1e-12);
    EXPECT_NEAR(m.total(), 0.09, 1e-12);
    EXPECT_EQ(m.check(), nullptr);
}

TEST(ErrorModel, SubstitutionOnly)
{
    auto m = ErrorModel::substitutionOnly(0.10);
    EXPECT_DOUBLE_EQ(m.insertion, 0.0);
    EXPECT_DOUBLE_EQ(m.deletion, 0.0);
    EXPECT_DOUBLE_EQ(m.substitution, 0.10);
}

TEST(ErrorModel, IndelOnly)
{
    auto m = ErrorModel::indelOnly(0.10);
    EXPECT_DOUBLE_EQ(m.insertion, 0.05);
    EXPECT_DOUBLE_EQ(m.deletion, 0.05);
    EXPECT_DOUBLE_EQ(m.substitution, 0.0);
}

TEST(ErrorModel, NgsBreakdownMatchesPaper)
{
    // Section 8: 25-30% of NGS errors are indels.
    auto m = ErrorModel::ngs(0.01);
    double indel_frac = (m.insertion + m.deletion) / m.total();
    EXPECT_GT(indel_frac, 0.25);
    EXPECT_LT(indel_frac, 0.30);
}

TEST(ErrorModel, NanoporeBreakdownMatchesPaper)
{
    // Section 8: over 60% of nanopore errors are indels.
    auto m = ErrorModel::nanopore(0.12);
    double indel_frac = (m.insertion + m.deletion) / m.total();
    EXPECT_NEAR(indel_frac, 0.60, 1e-9);
}

TEST(ErrorModel, ValidityChecks)
{
    EXPECT_NE(ErrorModel::custom(-0.1, 0.0, 0.0).check(), nullptr);
    EXPECT_NE(ErrorModel::custom(0.5, 0.4, 0.2).check(), nullptr);
    EXPECT_EQ(ErrorModel::custom(0.3, 0.3, 0.3).check(), nullptr);
}

TEST(ErrorModel, TotalExactlyOneIsValid)
{
    // The boundary is inclusive: an error at every position is a
    // legal (if hopeless) channel.
    auto m = ErrorModel::custom(0.4, 0.3, 0.3);
    EXPECT_DOUBLE_EQ(m.total(), 1.0);
    EXPECT_EQ(m.check(), nullptr);
    EXPECT_EQ(ErrorModel::uniform(1.0).check(), nullptr);
}

TEST(ErrorModel, TinyNegativesAreInvalid)
{
    // Even sub-epsilon negative rates must be rejected — they would
    // silently skew the cumulative-threshold channel walk.
    EXPECT_NE(ErrorModel::custom(-1e-12, 0.01, 0.01).check(), nullptr);
    EXPECT_NE(ErrorModel::custom(0.01, -1e-15, 0.01).check(), nullptr);
    EXPECT_NE(ErrorModel::custom(0.01, 0.01, -1e-9).check(), nullptr);
}

TEST(ErrorModel, TotalBarelyOverOneIsInvalid)
{
    EXPECT_NE(ErrorModel::custom(0.4, 0.3, 0.3 + 1e-9).check(), nullptr);
}

TEST(ErrorModel, ZeroRatesAreValid)
{
    auto m = ErrorModel::custom(0.0, 0.0, 0.0);
    EXPECT_EQ(m.check(), nullptr);
    EXPECT_DOUBLE_EQ(m.total(), 0.0);
}

} // namespace
} // namespace dnastore
