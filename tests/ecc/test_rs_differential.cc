#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "ecc/rs.hh"
#include "ecc/rs_reference.hh"
#include "fuzz_iters.hh"
#include "util/rng.hh"

namespace dnastore {
namespace {

/**
 * Differential suite: the library decoder against the frozen
 * pre-rewrite decoder (rs_reference.hh) on seeded words from clean to
 * far past capacity, plus the malformed inputs the decoder must
 * reject: symbols outside the field, duplicate, out-of-range and
 * too many erasures, and a wrong codeword length. Every decode must
 * agree on the success flag, both correction counts and every
 * codeword byte, so a bit-identical rewrite cannot drift on inputs
 * the correctness suites never look at (past-capacity words that the
 * final syndrome check rejects, in particular).
 */

struct Code
{
    unsigned m;
    size_t parity;
};

/** Codes for every m in 3..16, plus the two the workloads run. */
std::vector<Code>
codes(Rng &rng)
{
    std::vector<Code> out{ { 8, 47 }, { 10, 188 } };
    for (unsigned m = 3; m <= 16; ++m) {
        const size_t n = (size_t(1) << m) - 1;
        // Full range up to m 8; up to n / 2 to m 12; small E beyond,
        // where n alone makes each decode costly.
        const size_t hi = m <= 8 ? n - 1 : m <= 12 ? n / 2 : 48;
        out.push_back({ m, 2 });
        for (int c = 0; c < (m <= 12 ? 3 : 1); ++c)
            out.push_back({ m, 1 + size_t(rng.nextBelow(hi)) });
    }
    return out;
}

/** @p count distinct random positions in [0, n). */
std::vector<size_t>
distinctPositions(size_t count, size_t n, Rng &rng)
{
    std::set<size_t> picked;
    std::vector<size_t> out;
    while (out.size() < count) {
        const size_t pos = size_t(rng.nextBelow(n));
        if (picked.insert(pos).second)
            out.push_back(pos);
    }
    return out;
}

/**
 * Decode @p word with the library and the reference; they must agree
 * on the outcome and on every codeword byte. Returns the reference's
 * outcome.
 */
RsDecodeResult
expectSameDecode(const ReedSolomon &rs, const rs_reference::Decoder &ref,
                 const std::vector<uint32_t> &word,
                 const std::vector<size_t> &erasures, RsScratch &scratch)
{
    std::vector<uint32_t> want_word = word, got_word = word;
    const RsDecodeResult want = ref.decode(want_word, erasures);
    const RsDecodeResult got = rs.decode(got_word, erasures, scratch);
    EXPECT_EQ(got.success, want.success);
    EXPECT_EQ(got.errorsCorrected, want.errorsCorrected);
    EXPECT_EQ(got.erasuresCorrected, want.erasuresCorrected);
    EXPECT_EQ(got_word, want_word);
    return want;
}

TEST(RsDifferential, DecodeMatchesFrozenReferenceOnSeededMixes)
{
    Rng rng(0xd1ff);
    RsScratch scratch;
    size_t decodes = 0, successes = 0, past_capacity = 0, malformed = 0;
    for (const Code &c : codes(rng)) {
        GaloisField gf(c.m);
        ReedSolomon rs(gf, c.parity);
        rs_reference::Decoder ref(gf, c.parity);
        const size_t n = rs.n();
        const int words = c.m <= 12 ? fuzzIters(24) : fuzzIters(24) / 8 + 1;
        for (int w = 0; w < words; ++w) {
            std::vector<uint32_t> data(rs.k());
            for (auto &d : data)
                d = uint32_t(rng.nextBelow(gf.size()));
            std::vector<uint32_t> word = rs.encode(data);

            // Erasures in [0, E], errors in [0, E / 2 + 3].
            const size_t n_era = size_t(rng.nextBelow(c.parity + 1));
            const size_t n_err =
                std::min(n - n_era, size_t(rng.nextBelow(c.parity / 2 + 4)));
            const auto touched = distinctPositions(n_era + n_err, n, rng);
            for (size_t i = 0; i < touched.size(); ++i) {
                // Erased symbols may keep their value; errors may not.
                word[touched[i]] ^= uint32_t(rng.nextBelow(gf.size())) |
                    (i < n_era ? 0u : 1u);
            }
            std::vector<size_t> erasures(
                touched.begin(), touched.begin() + std::ptrdiff_t(n_era));
            if (2 * n_err + n_era > c.parity)
                ++past_capacity;

            // One word in four is malformed in one of six ways.
            std::string kind = "mix";
            if (rng.nextBelow(4) == 0) {
                ++malformed;
                const size_t pos = size_t(rng.nextBelow(n));
                const uint32_t big =
                    uint32_t(gf.size()) << rng.nextBelow(32 - c.m);
                switch (rng.nextBelow(6)) {
                  case 0: // outside the field, at a position not erased
                    kind = "out-of-field";
                    word[pos] |= big;
                    break;
                  case 1: // outside the field, at an erased position
                    kind = "erased out-of-field";
                    word[pos] |= big;
                    erasures.push_back(pos);
                    break;
                  case 2:
                    kind = "duplicate erasure";
                    erasures.push_back(pos);
                    erasures.push_back(pos);
                    break;
                  case 3:
                    kind = "out-of-range erasure";
                    erasures.push_back(n + size_t(rng.nextBelow(3)));
                    break;
                  case 4:
                    kind = "too many erasures";
                    erasures = distinctPositions(
                        std::min(n, c.parity + 1), n, rng);
                    break;
                  default:
                    kind = "wrong length";
                    if (rng.nextBelow(2) == 0)
                        word.pop_back();
                    else
                        word.push_back(0);
                    break;
                }
            }

            SCOPED_TRACE(::testing::Message()
                         << "m " << c.m << " E " << c.parity << " word "
                         << w << " " << kind << ", " << n_err
                         << " errors, " << n_era << " erasures");
            successes +=
                expectSameDecode(rs, ref, word, erasures, scratch).success;
            if (HasFailure())
                return;
            ++decodes;
        }
    }
    RecordProperty("decodes", int(decodes));
    EXPECT_GT(successes, decodes / 4);
    EXPECT_GT(past_capacity, decodes / 8);
    EXPECT_GT(malformed, decodes / 8);
}

TEST(RsDifferential, SmallFieldsPastCapacityReachTheFinalCheck)
{
    // A located pattern fails the final syndrome check, the one place
    // where the decoder's truncated error evaluator differs from the
    // reference's, only when the locator comes out shorter than
    // Berlekamp-Massey's register length and still splits into
    // distinct roots, which small fields make common.
    Rng rng(0x5a11);
    RsScratch scratch;
    size_t decodes = 0, verify_rejects = 0;
    for (unsigned m = 3; m <= 6; ++m) {
        GaloisField gf(m);
        const size_t n = gf.order();
        for (int c = 0; c < 8; ++c) {
            const size_t parity = 2 + size_t(rng.nextBelow(n - 2));
            ReedSolomon rs(gf, parity);
            rs_reference::Decoder ref(gf, parity);
            for (int w = 0; w < std::max(fuzzIters(24), 24) * 4; ++w) {
                std::vector<uint32_t> data(rs.k());
                for (auto &d : data)
                    d = uint32_t(rng.nextBelow(gf.size()));
                std::vector<uint32_t> word = rs.encode(data);
                const size_t n_era = size_t(rng.nextBelow(parity / 2 + 1));
                const size_t n_err =
                    (parity - n_era) / 2 + 1 +
                    size_t(rng.nextBelow(n - n_era - (parity - n_era) / 2));
                const auto touched =
                    distinctPositions(n_era + n_err, n, rng);
                for (size_t i = 0; i < touched.size(); ++i)
                    word[touched[i]] ^= 1 + uint32_t(rng.nextBelow(n));
                const std::vector<size_t> erasures(
                    touched.begin(), touched.begin() + std::ptrdiff_t(n_era));
                SCOPED_TRACE(::testing::Message()
                             << "m " << m << " E " << parity << " word " << w
                             << ", " << n_err << " errors, " << n_era
                             << " erasures");
                expectSameDecode(rs, ref, word, erasures, scratch);
                if (HasFailure())
                    return;
                ++decodes;
            }
            verify_rejects += ref.verifyRejects();
        }
    }
    RecordProperty("decodes", int(decodes));
    RecordProperty("verify_rejects", int(verify_rejects));
    EXPECT_GT(verify_rejects, decodes / 100);
}

} // namespace
} // namespace dnastore
