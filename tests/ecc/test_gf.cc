#include <gtest/gtest.h>

#include "ecc/gf.hh"
#include "util/rng.hh"

namespace dnastore {
namespace {

class GfParam : public ::testing::TestWithParam<unsigned> {};

TEST_P(GfParam, ExpLogAreInverse)
{
    GaloisField gf(GetParam());
    for (uint32_t a = 1; a <= gf.order(); ++a)
        EXPECT_EQ(gf.alphaPow(gf.logData()[a]), a);
}

TEST_P(GfParam, MultiplicationIsCommutativeAndAssociative)
{
    GaloisField gf(GetParam());
    Rng rng(GetParam());
    for (int i = 0; i < 200; ++i) {
        uint32_t a = uint32_t(rng.nextBelow(gf.size()));
        uint32_t b = uint32_t(rng.nextBelow(gf.size()));
        uint32_t c = uint32_t(rng.nextBelow(gf.size()));
        EXPECT_EQ(gf.mul(a, b), gf.mul(b, a));
        EXPECT_EQ(gf.mul(gf.mul(a, b), c), gf.mul(a, gf.mul(b, c)));
    }
}

TEST_P(GfParam, DistributivityOverAddition)
{
    GaloisField gf(GetParam());
    Rng rng(GetParam() + 100);
    for (int i = 0; i < 200; ++i) {
        uint32_t a = uint32_t(rng.nextBelow(gf.size()));
        uint32_t b = uint32_t(rng.nextBelow(gf.size()));
        uint32_t c = uint32_t(rng.nextBelow(gf.size()));
        EXPECT_EQ(gf.mul(a, GaloisField::add(b, c)),
                  GaloisField::add(gf.mul(a, b), gf.mul(a, c)));
    }
}

TEST_P(GfParam, InverseIsCorrect)
{
    GaloisField gf(GetParam());
    for (uint32_t a = 1; a <= gf.order(); ++a)
        EXPECT_EQ(gf.mul(a, gf.inverse(a)), 1u);
}

TEST_P(GfParam, DivisionUndoesMultiplication)
{
    GaloisField gf(GetParam());
    Rng rng(GetParam() + 200);
    for (int i = 0; i < 200; ++i) {
        uint32_t a = uint32_t(rng.nextBelow(gf.size()));
        uint32_t b = 1 + uint32_t(rng.nextBelow(gf.order()));
        EXPECT_EQ(gf.div(gf.mul(a, b), b), a);
    }
}

TEST_P(GfParam, AlphaHasFullOrder)
{
    // alpha must be primitive: alpha^k != 1 for 0 < k < n.
    GaloisField gf(GetParam());
    EXPECT_EQ(gf.alphaPow(gf.order()), 1u);
    // Spot-check proper divisors of the group order.
    for (uint32_t k = 1; k < gf.order(); k <<= 1) {
        if (gf.order() % k == 0 && k != gf.order()) {
            EXPECT_NE(gf.alphaPow(k), 1u) << "k=" << k;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllDegrees, GfParam,
                         ::testing::Values(2u, 3u, 4u, 8u, 10u, 12u));

TEST(GaloisField, SixteenBitFieldBasics)
{
    // Paper-scale field: GF(2^16), 65535-symbol codewords.
    GaloisField gf(16);
    EXPECT_EQ(gf.order(), 65535u);
    EXPECT_EQ(gf.mul(0, 12345), 0u);
    EXPECT_EQ(gf.mul(1, 12345), 12345u);
    EXPECT_EQ(gf.mul(12345, gf.inverse(12345)), 1u);
    EXPECT_EQ(gf.alphaPow(65535), 1u);
    // 65535 = 3 * 5 * 17 * 257; alpha^(65535/d) != 1 for prime d.
    for (uint32_t d : { 3u, 5u, 17u, 257u })
        EXPECT_NE(gf.alphaPow(65535 / d), 1u);
}

TEST(GaloisField, ZeroOperandEdgeCases)
{
    GaloisField gf(8);
    EXPECT_EQ(gf.mul(0, 0), 0u);
    EXPECT_EQ(gf.div(0, 7), 0u);
    EXPECT_THROW(gf.div(3, 0), std::domain_error);
    EXPECT_THROW(gf.inverse(0), std::domain_error);
}

TEST(GaloisField, UnsupportedDegreesRejected)
{
    EXPECT_THROW(GaloisField(1), std::invalid_argument);
    EXPECT_THROW(GaloisField(17), std::invalid_argument);
}

} // namespace
} // namespace dnastore
