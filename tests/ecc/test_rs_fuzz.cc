#include <gtest/gtest.h>

#include <set>

#include "ecc/rs.hh"
#include "fuzz_iters.hh"
#include "util/rng.hh"

namespace dnastore {
namespace {

/**
 * Randomized property tests for the Reed-Solomon codec: for random
 * (field, parity) choices and random error/erasure mixes,
 *  - any mix with 2*errors + erasures <= parity must decode exactly;
 *  - whenever decode() reports success, the result must be a valid
 *    codeword whose data part matches the encoder input *if* the
 *    corruption was within capability (no silent miscorrection in the
 *    correctable regime);
 *  - failure must leave the input untouched.
 */
class RsFuzz : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(RsFuzz, RandomMixesWithinCapabilityAlwaysDecode)
{
    const unsigned m = GetParam();
    GaloisField gf(m);
    Rng rng(m * 7919);
    const int iters = fuzzIters(40);
    for (int iter = 0; iter < iters; ++iter) {
        size_t max_parity = std::min<size_t>(gf.order() - 1, 64);
        size_t parity = 2 + rng.nextBelow(max_parity - 1);
        ReedSolomon rs(gf, parity);

        std::vector<uint32_t> data(rs.k());
        for (auto &d : data)
            d = uint32_t(rng.nextBelow(gf.size()));
        auto clean = rs.encode(data);

        // Random mix within capability: 2e + r <= parity.
        size_t n_err = rng.nextBelow(parity / 2 + 1);
        size_t n_era = rng.nextBelow(parity - 2 * n_err + 1);

        auto noisy = clean;
        std::set<size_t> touched;
        while (touched.size() < n_err + n_era) {
            size_t pos = size_t(rng.nextBelow(noisy.size()));
            if (touched.insert(pos).second)
                noisy[pos] = uint32_t(rng.nextBelow(gf.size()));
        }
        std::vector<size_t> erasures(touched.begin(), touched.end());
        // The first n_era touched positions are declared erasures;
        // the rest are unknown-location errors. (Erasing a position
        // that happens to hold the right value is allowed.)
        erasures.resize(n_era);

        // Positions corrupted but not declared may exceed n_err only
        // if corruption left some symbols unchanged; recount actual
        // unknown errors.
        size_t actual_err = 0;
        std::set<size_t> declared(erasures.begin(), erasures.end());
        for (size_t pos : touched)
            if (!declared.count(pos) && noisy[pos] != clean[pos])
                ++actual_err;
        if (2 * actual_err + n_era > parity)
            continue; // corruption drew duplicate-value symbols; skip

        auto result = rs.decode(noisy, erasures);
        ASSERT_TRUE(result.success)
            << "m=" << m << " parity=" << parity << " err=" << actual_err
            << " era=" << n_era;
        EXPECT_EQ(noisy, clean);
    }
}

TEST_P(RsFuzz, SuccessAlwaysYieldsValidCodeword)
{
    const unsigned m = GetParam();
    GaloisField gf(m);
    Rng rng(m * 104729);
    const int iters = fuzzIters(30);
    for (int iter = 0; iter < iters; ++iter) {
        size_t parity =
            4 + rng.nextBelow(std::min<size_t>(20, gf.order() - 5));
        ReedSolomon rs(gf, parity);
        std::vector<uint32_t> data(rs.k());
        for (auto &d : data)
            d = uint32_t(rng.nextBelow(gf.size()));
        auto noisy = rs.encode(data);
        // Arbitrary-strength corruption, possibly uncorrectable.
        size_t blast = rng.nextBelow(noisy.size() / 2);
        for (size_t e = 0; e < blast; ++e)
            noisy[rng.nextBelow(noisy.size())] =
                uint32_t(rng.nextBelow(gf.size()));
        auto before = noisy;
        auto result = rs.decode(noisy);
        if (result.success)
            EXPECT_TRUE(rs.isCodeword(noisy));
        else
            EXPECT_EQ(noisy, before); // untouched on failure
    }
}

INSTANTIATE_TEST_SUITE_P(Fields, RsFuzz,
                         ::testing::Values(3u, 4u, 6u, 8u, 10u, 16u));

} // namespace
} // namespace dnastore
