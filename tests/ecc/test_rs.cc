#include <gtest/gtest.h>

#include <set>

#include "ecc/rs.hh"
#include "util/rng.hh"

namespace dnastore {
namespace {

std::vector<uint32_t>
randomData(const ReedSolomon &rs, Rng &rng)
{
    std::vector<uint32_t> data(rs.k());
    for (auto &d : data)
        d = uint32_t(rng.nextBelow(rs.field().size()));
    return data;
}

/** Corrupt `n_err` random positions with random wrong symbols. */
std::vector<size_t>
corrupt(std::vector<uint32_t> &cw, size_t n_err, const GaloisField &gf,
        Rng &rng)
{
    std::set<size_t> positions;
    while (positions.size() < n_err)
        positions.insert(size_t(rng.nextBelow(cw.size())));
    for (size_t pos : positions) {
        uint32_t wrong;
        do {
            wrong = uint32_t(rng.nextBelow(gf.size()));
        } while (wrong == cw[pos]);
        cw[pos] = wrong;
    }
    return { positions.begin(), positions.end() };
}

TEST(ReedSolomon, EncodeProducesValidCodeword)
{
    GaloisField gf(8);
    ReedSolomon rs(gf, 32);
    EXPECT_EQ(rs.n(), 255u);
    EXPECT_EQ(rs.k(), 223u);
    Rng rng(1);
    auto cw = rs.encode(randomData(rs, rng));
    EXPECT_EQ(cw.size(), 255u);
    EXPECT_TRUE(rs.isCodeword(cw));
}

TEST(ReedSolomon, EncodeIsSystematic)
{
    GaloisField gf(8);
    ReedSolomon rs(gf, 16);
    Rng rng(2);
    auto data = randomData(rs, rng);
    auto cw = rs.encode(data);
    for (size_t i = 0; i < rs.k(); ++i)
        EXPECT_EQ(cw[i], data[i]);
}

TEST(ReedSolomon, RejectsBadParameters)
{
    GaloisField gf(4);
    EXPECT_THROW(ReedSolomon(gf, 0), std::invalid_argument);
    EXPECT_THROW(ReedSolomon(gf, 15), std::invalid_argument);
    ReedSolomon rs(gf, 4);
    EXPECT_THROW(rs.encode(std::vector<uint32_t>(3)),
                 std::invalid_argument);
}

TEST(ReedSolomon, CleanCodewordDecodesTrivially)
{
    GaloisField gf(8);
    ReedSolomon rs(gf, 20);
    Rng rng(3);
    auto cw = rs.encode(randomData(rs, rng));
    auto copy = cw;
    auto result = rs.decode(copy);
    EXPECT_TRUE(result.success);
    EXPECT_EQ(result.errorsCorrected, 0u);
    EXPECT_EQ(copy, cw);
}

TEST(ReedSolomon, CorrectsErrorsUpToHalfParity)
{
    GaloisField gf(8);
    ReedSolomon rs(gf, 32); // corrects up to 16 errors
    Rng rng(4);
    for (size_t n_err : { 1u, 5u, 16u }) {
        auto cw = rs.encode(randomData(rs, rng));
        auto noisy = cw;
        corrupt(noisy, n_err, gf, rng);
        auto result = rs.decode(noisy);
        EXPECT_TRUE(result.success) << n_err << " errors";
        EXPECT_EQ(result.errorsCorrected, n_err);
        EXPECT_EQ(noisy, cw);
    }
}

TEST(ReedSolomon, DetectsUncorrectableOverload)
{
    GaloisField gf(8);
    ReedSolomon rs(gf, 8); // corrects up to 4 errors
    Rng rng(5);
    size_t failures = 0;
    const int reps = 50;
    for (int i = 0; i < reps; ++i) {
        auto cw = rs.encode(randomData(rs, rng));
        auto noisy = cw;
        corrupt(noisy, 40, gf, rng); // way beyond capability
        auto before = noisy;
        auto result = rs.decode(noisy);
        if (!result.success) {
            ++failures;
            EXPECT_EQ(noisy, before); // untouched on failure
        }
    }
    // Miscorrection probability for RS is tiny; nearly all must fail.
    EXPECT_GE(failures, size_t(reps - 2));
}

TEST(ReedSolomon, CorrectsErasuresUpToParity)
{
    GaloisField gf(8);
    ReedSolomon rs(gf, 32);
    Rng rng(6);
    auto cw = rs.encode(randomData(rs, rng));
    auto noisy = cw;
    std::set<size_t> pos_set;
    while (pos_set.size() < 32)
        pos_set.insert(size_t(rng.nextBelow(noisy.size())));
    std::vector<size_t> erasures(pos_set.begin(), pos_set.end());
    for (size_t pos : erasures)
        noisy[pos] = uint32_t(rng.nextBelow(gf.size()));
    auto result = rs.decode(noisy, erasures);
    EXPECT_TRUE(result.success);
    EXPECT_EQ(result.erasuresCorrected, 32u);
    EXPECT_EQ(noisy, cw);
}

TEST(ReedSolomon, MixedErrorsAndErasures)
{
    // 2*errors + erasures <= parity must decode.
    GaloisField gf(8);
    ReedSolomon rs(gf, 20);
    Rng rng(7);
    auto cw = rs.encode(randomData(rs, rng));
    auto noisy = cw;
    // 8 erasures + 6 errors: 2*6 + 8 = 20 = parity (boundary case).
    std::vector<size_t> erasures;
    for (size_t i = 0; i < 8; ++i) {
        erasures.push_back(i * 25);
        noisy[i * 25] = uint32_t(rng.nextBelow(gf.size()));
    }
    std::set<size_t> erased(erasures.begin(), erasures.end());
    size_t injected = 0;
    for (size_t pos = 13; injected < 6; pos += 29) {
        if (erased.count(pos))
            continue;
        noisy[pos] ^= 0x5a;
        ++injected;
    }
    auto result = rs.decode(noisy, erasures);
    EXPECT_TRUE(result.success);
    EXPECT_EQ(noisy, cw);
    EXPECT_EQ(result.errorsCorrected, 6u);
    EXPECT_EQ(result.erasuresCorrected, 8u);
}

TEST(ReedSolomon, TooManyErasuresFails)
{
    GaloisField gf(4);
    ReedSolomon rs(gf, 4);
    Rng rng(8);
    auto cw = rs.encode(randomData(rs, rng));
    std::vector<size_t> erasures{ 0, 1, 2, 3, 4 };
    auto result = rs.decode(cw, erasures);
    EXPECT_FALSE(result.success);
}

TEST(ReedSolomon, ErasedPositionValuesAreIgnored)
{
    // The decoder must not trust erased symbol values at all.
    GaloisField gf(8);
    ReedSolomon rs(gf, 10);
    Rng rng(9);
    auto cw = rs.encode(randomData(rs, rng));
    auto noisy = cw;
    // Erase position 7 but leave the *correct* value there; and erase
    // position 100 with a garbage value.
    noisy[100] = cw[100] ^ 0x33;
    auto result = rs.decode(noisy, { 7, 100 });
    EXPECT_TRUE(result.success);
    EXPECT_EQ(noisy, cw);
}

TEST(ReedSolomon, SymbolsOutsideTheFieldAreRejected)
{
    // Every symbol must be below 2^m. A parity symbol past the field
    // used to index past the log table in the syndrome loop, and a
    // data symbol past it used to "decode" with success and one error
    // while keeping bits above the field.
    GaloisField gf(10);
    ReedSolomon rs(gf, 188);
    Rng rng(26);
    const auto cw = rs.encode(randomData(rs, rng));
    for (size_t pos : { rs.k() + 3, size_t(17) }) {
        for (uint32_t bad : { uint32_t(1024), uint32_t(5000),
                              uint32_t(0xffff), ~uint32_t(0) }) {
            auto noisy = cw;
            noisy[pos] = bad;
            const auto before = noisy;
            EXPECT_FALSE(rs.isCodeword(noisy)) << pos << " " << bad;
            const auto result = rs.decode(noisy);
            EXPECT_FALSE(result.success) << pos << " " << bad;
            EXPECT_EQ(result.errorsCorrected, 0u);
            EXPECT_EQ(noisy, before) << pos << " " << bad;
            // An erased position's value is ignored, out of field too.
            EXPECT_TRUE(rs.decode(noisy, { pos }).success);
            EXPECT_EQ(noisy, cw);
        }
    }
    auto data = randomData(rs, rng);
    data[9] = 1024;
    EXPECT_THROW(rs.encode(data), std::invalid_argument);
}

class RsGfSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(RsGfSweep, RoundTripWithHalfCapacityErrors)
{
    GaloisField gf(GetParam());
    size_t parity = std::max<size_t>(2, gf.order() / 8) & ~size_t(1);
    ReedSolomon rs(gf, parity);
    Rng rng(GetParam());
    auto cw = rs.encode(randomData(rs, rng));
    auto noisy = cw;
    corrupt(noisy, parity / 2, gf, rng);
    auto result = rs.decode(noisy);
    EXPECT_TRUE(result.success);
    EXPECT_EQ(noisy, cw);
}

INSTANTIATE_TEST_SUITE_P(FieldSweep, RsGfSweep,
                         ::testing::Values(3u, 4u, 6u, 8u, 10u, 12u));

TEST(ReedSolomon, ZeroErrorDecodeLeavesBufferUntouchedAndCountsZero)
{
    // The all-zero-syndrome early-out must report success with zero
    // corrections and not move a single symbol.
    GaloisField gf(10);
    ReedSolomon rs(gf, 188);
    Rng rng(20);
    auto cw = rs.encode(randomData(rs, rng));
    auto copy = cw;
    for (int rep = 0; rep < 3; ++rep) { // scratch reuse across calls
        auto result = rs.decode(copy);
        EXPECT_TRUE(result.success);
        EXPECT_EQ(result.errorsCorrected, 0u);
        EXPECT_EQ(result.erasuresCorrected, 0u);
        EXPECT_EQ(copy, cw);
    }
}

TEST(ReedSolomon, ErasureOnlyDecodeSkipsChienAndMatchesFullPath)
{
    // Erasure-only decodes (Berlekamp-Massey finds no errors) take the
    // skip-Chien fast path; outcomes must be identical to the classic
    // errors-and-erasures result across many erasure patterns.
    GaloisField gf(8);
    ReedSolomon rs(gf, 32);
    Rng rng(21);
    for (int rep = 0; rep < 20; ++rep) {
        auto cw = rs.encode(randomData(rs, rng));
        auto noisy = cw;
        size_t n_erase = 1 + size_t(rng.nextBelow(32));
        std::set<size_t> pos_set;
        while (pos_set.size() < n_erase)
            pos_set.insert(size_t(rng.nextBelow(noisy.size())));
        std::vector<size_t> erasures(pos_set.begin(), pos_set.end());
        for (size_t pos : erasures)
            noisy[pos] = uint32_t(rng.nextBelow(gf.size()));
        auto result = rs.decode(noisy, erasures);
        ASSERT_TRUE(result.success) << n_erase << " erasures";
        EXPECT_EQ(result.errorsCorrected, 0u);
        EXPECT_EQ(result.erasuresCorrected, n_erase);
        EXPECT_EQ(noisy, cw);
    }
}

TEST(ReedSolomon, DuplicateErasurePositionsFail)
{
    // A repeated erasure position gives the locator a double root;
    // the decoder must reject it rather than miscount.
    GaloisField gf(8);
    ReedSolomon rs(gf, 16);
    Rng rng(22);
    auto cw = rs.encode(randomData(rs, rng));
    auto noisy = cw;
    noisy[5] ^= 0x11;
    auto before = noisy;
    auto result = rs.decode(noisy, { 5, 5 });
    EXPECT_FALSE(result.success);
    EXPECT_EQ(noisy, before);
}

TEST(ReedSolomon, DuplicateErasureOfZeroSymbolFails)
{
    // The duplicate check must not depend on symbol values: a clean
    // codeword whose repeated erasure position already holds zero is
    // rejected too, and untouched, like the corrupted case above.
    GaloisField gf(8);
    ReedSolomon rs(gf, 16);
    Rng rng(25);
    auto data = randomData(rs, rng);
    data[5] = 0;
    auto cw = rs.encode(data);
    auto before = cw;
    auto result = rs.decode(cw, { 5, 5 });
    EXPECT_FALSE(result.success);
    EXPECT_EQ(result.erasuresCorrected, 0u);
    EXPECT_EQ(cw, before);

    cw[40] ^= 0x21; // one error elsewhere: same verdict
    before = cw;
    EXPECT_FALSE(rs.decode(cw, { 5, 5 }).success);
    EXPECT_EQ(cw, before);
}

TEST(ReedSolomon, ExplicitScratchMatchesThreadLocalDefault)
{
    GaloisField gf(8);
    ReedSolomon rs(gf, 20);
    Rng rng(23);
    RsScratch scratch;
    for (int rep = 0; rep < 10; ++rep) {
        auto cw = rs.encode(randomData(rs, rng));
        auto with_default = cw;
        auto with_scratch = cw;
        size_t n_err = size_t(rng.nextBelow(11));
        corrupt(with_default, n_err, gf, rng);
        with_scratch = with_default;
        auto a = rs.decode(with_default);
        auto b = rs.decode(with_scratch, {}, scratch);
        EXPECT_EQ(a.success, b.success);
        EXPECT_EQ(a.errorsCorrected, b.errorsCorrected);
        EXPECT_EQ(with_default, with_scratch);
    }
}

TEST(ReedSolomon, ScratchIsReusableAcrossDifferentCodes)
{
    // One scratch serving codes over different fields must not leak
    // state between them.
    RsScratch scratch;
    Rng rng(24);
    for (unsigned m : { 4u, 8u, 10u, 8u, 4u }) {
        GaloisField gf(m);
        size_t parity = std::max<size_t>(2, gf.order() / 8) & ~size_t(1);
        ReedSolomon rs(gf, parity);
        auto cw = rs.encode(randomData(rs, rng));
        auto noisy = cw;
        corrupt(noisy, parity / 2, gf, rng);
        auto result = rs.decode(noisy, {}, scratch);
        EXPECT_TRUE(result.success) << "m=" << m;
        EXPECT_EQ(noisy, cw);
    }
}

TEST(ReedSolomon, PaperScaleGf16Codeword)
{
    // GF(2^16): n = 65535 as in the paper's architecture. Parity kept
    // moderate so the test runs quickly; the geometry is what matters.
    GaloisField gf(16);
    ReedSolomon rs(gf, 32);
    EXPECT_EQ(rs.n(), 65535u);
    Rng rng(10);
    auto data = randomData(rs, rng);
    auto cw = rs.encode(data);
    ASSERT_TRUE(rs.isCodeword(cw));
    auto noisy = cw;
    corrupt(noisy, 16, gf, rng);
    auto result = rs.decode(noisy);
    EXPECT_TRUE(result.success);
    EXPECT_EQ(result.errorsCorrected, 16u);
    EXPECT_EQ(noisy, cw);
}

} // namespace
} // namespace dnastore
