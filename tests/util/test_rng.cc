#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>

#include "util/rng.hh"

namespace dnastore {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBelow(17), 17u);
}

TEST(Rng, NextBelowCoversAllValues)
{
    Rng rng(7);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.nextBelow(5));
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(3);
    for (int i = 0; i < 10000; ++i) {
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, GaussianMoments)
{
    Rng rng(13);
    double sum = 0.0, sumsq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        double g = rng.nextGaussian();
        sum += g;
        sumsq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sumsq / n, 1.0, 0.03);
}

TEST(Rng, GammaMomentsMatchShapeScale)
{
    // Gamma(k, theta): mean k*theta, variance k*theta^2.
    Rng rng(17);
    const double shape = 4.0, scale = 2.5;
    double sum = 0.0, sumsq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        double g = rng.nextGamma(shape, scale);
        EXPECT_GT(g, 0.0);
        sum += g;
        sumsq += g * g;
    }
    double mean = sum / n;
    double var = sumsq / n - mean * mean;
    EXPECT_NEAR(mean, shape * scale, 0.1);
    EXPECT_NEAR(var, shape * scale * scale, 0.8);
}

TEST(Rng, GammaSubUnitShape)
{
    Rng rng(19);
    const double shape = 0.5, scale = 1.0;
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        double g = rng.nextGamma(shape, scale);
        EXPECT_GT(g, 0.0);
        sum += g;
    }
    EXPECT_NEAR(sum / n, shape * scale, 0.02);
}

TEST(Rng, ShufflePreservesElements)
{
    Rng rng(23);
    std::vector<int> v{ 1, 2, 3, 4, 5, 6, 7 };
    auto orig = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

// Known-answer pins: the first 16 outputs of each hot draw for two
// seeds. Every golden in the tree depends on this stream, so any change
// to the generator or its inlined draws must fail here first.

struct RngPins
{
    uint64_t seed;
    uint64_t next[16];
    uint64_t doubleBits[16];
    uint64_t below3[16];
    uint64_t below4[16];
    uint64_t belowPrime[16]; // nextBelow(1000000007)
};

const RngPins kPins[] = {
    { 0,
      { 0x99ec5f36cb75f2b4ULL, 0xbf6e1f784956452aULL, 0x1a5f849d4933e6e0ULL,
        0x6aa594f1262d2d2cULL, 0xbba5ad4a1f842e59ULL, 0xffef8375d9ebcacaULL,
        0x6c160deed2f54c98ULL, 0x8920ad648fc30a3fULL, 0xdb032c0ba7539731ULL,
        0xeb3a475a3e749a3dULL, 0x1d42993fa43f2a54ULL, 0x11361bf526a14bb5ULL,
        0x1b4f07a5ab3d8e9cULL, 0xa7a3257f6986db7fULL, 0x7efdaa95605dfc9cULL,
        0x4bde97c0a78eaab8ULL },
      { 0x3fe33d8be6d96ebeULL, 0x3fe7edc3ef092ac8ULL, 0x3fba5f849d4933e0ULL,
        0x3fdaa9653c498b4aULL, 0x3fe774b5a943f085ULL, 0x3feffdf06ebb3d79ULL,
        0x3fdb05837bb4bd52ULL, 0x3fe12415ac91f861ULL, 0x3feb60658174ea72ULL,
        0x3fed6748eb47ce93ULL, 0x3fbd42993fa43f28ULL, 0x3fb1361bf526a148ULL,
        0x3fbb4f07a5ab3d88ULL, 0x3fe4f464afed30dbULL, 0x3fdfbf6aa558177eULL,
        0x3fd2f7a5f029e3aaULL },
      { 2, 2, 1, 1, 0, 2, 2, 1, 1, 1, 1, 0, 1, 2, 2, 1 },
      { 0, 2, 0, 0, 1, 2, 0, 3, 1, 1, 0, 1, 0, 3, 0, 0 },
      { 613654269, 611354591, 543825213, 833159196, 467896472, 201267614,
        457525254, 703509983, 329344758, 833171430, 421493431, 434726347,
        533532816, 142543849, 375734596, 106204037 } },
    { 42,
      { 0x15780b2e0c2ec716ULL, 0x6104d9866d113a7eULL, 0xae17533239e499a1ULL,
        0xecb8ad4703b360a1ULL, 0xfde6dc7fe2ec5e64ULL, 0xc50da53101795238ULL,
        0xb82154855a65ddb2ULL, 0xd99a2743ebe60087ULL, 0xc2e96e726e97647eULL,
        0x9556615f775fbc3dULL, 0xaeb53b340c103971ULL, 0x4a69db9873af8965ULL,
        0xcd0feda93006c6b6ULL, 0x52480865a4b42742ULL, 0xb60dec3bf2d887cdULL,
        0xe0b55a68b96677faULL },
      { 0x3fb5780b2e0c2ec0ULL, 0x3fd84136619b444eULL, 0x3fe5c2ea66473c93ULL,
        0x3fed9715a8e0766cULL, 0x3fefbcdb8ffc5d8bULL, 0x3fe8a1b4a6202f2aULL,
        0x3fe7042a90ab4cbbULL, 0x3feb3344e87d7cc0ULL, 0x3fe85d2dce4dd2ecULL,
        0x3fe2aacc2beeebf7ULL, 0x3fe5d6a766818207ULL, 0x3fd29a76e61cebe2ULL,
        0x3fe9a1fdb52600d8ULL, 0x3fd4920219692d08ULL, 0x3fe6c1bd877e5b10ULL,
        0x3fec16ab4d172cceULL },
      { 0, 0, 2, 2, 1, 0, 1, 0, 1, 2, 1, 1, 1, 1, 1, 1 },
      { 2, 2, 1, 1, 0, 0, 2, 3, 2, 1, 1, 1, 2, 2, 1, 2 },
      { 573567471, 27881594, 436452291, 779106270, 996447533, 671443474,
        58349042, 558597602, 378197194, 974661663, 987584276, 649274206,
        902862347, 578260342, 992818720, 770454081 } },
};

TEST(Rng, KnownAnswerStreams)
{
    for (const RngPins &pin : kPins) {
        SCOPED_TRACE(pin.seed);
        Rng next(pin.seed), dbl(pin.seed), b3(pin.seed), b4(pin.seed),
            bp(pin.seed);
        for (int i = 0; i < 16; ++i) {
            EXPECT_EQ(next.next(), pin.next[i]) << i;
            const double d = dbl.nextDouble();
            uint64_t bits;
            std::memcpy(&bits, &d, sizeof bits);
            EXPECT_EQ(bits, pin.doubleBits[i]) << i;
            EXPECT_EQ(b3.nextBelow(3), pin.below3[i]) << i;
            EXPECT_EQ(b4.nextBelow(4), pin.below4[i]) << i;
            EXPECT_EQ(bp.nextBelow(1000000007), pin.belowPrime[i]) << i;
        }
    }
}

} // namespace
} // namespace dnastore
