#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "channel/ids_channel.hh"
#include "consensus/bma.hh"
#include "consensus/bma_reference.hh"
#include "consensus/two_sided.hh"
#include "fuzz_iters.hh"
#include "util/rng.hh"
#include "util/simd.hh"

namespace dnastore {
namespace {

/**
 * Differential suite: the library's bit-parallel BMA core against the
 * frozen per-read reference (bma_reference.hh), byte for byte, for
 * both lenses and the two-sided combiner. Every cluster runs on both
 * mask gathers: the byte-compare one of the vector tiers and the
 * portable one of the Scalar tier (on a host without a vector tier
 * both runs take the portable one). Cluster sizes cross the 8-read
 * mask words, the 16-read limit of the fixed width and the
 * runtime-width path beyond it.
 */

Strand
randomStrand(size_t len, Rng &rng)
{
    Strand s(len);
    for (auto &b : s)
        b = baseFromBits(unsigned(rng.nextBelow(4)));
    return s;
}

class BmaDifferential : public ::testing::Test
{
  protected:
    /** check() leaves the tier changed; restore the entry tier. */
    void TearDown() override { simd::setLevel(entry_); }

    /** Check one cluster at one target length, on both gathers. */
    void
    check(const std::vector<Strand> &reads, size_t target_len)
    {
        std::vector<StrandView> views(reads.begin(), reads.end());
        const size_t n = views.size();
        const Strand fwd =
            bma_reference::oneWay(views.data(), n, target_len, false);
        const Strand bwd =
            bma_reference::oneWay(views.data(), n, target_len, true);
        const Strand both =
            bma_reference::twoSided(views.data(), n, target_len);
        for (simd::Level level : {simd::Level::Scalar, simd::Level::Avx2}) {
            const simd::Level got = simd::setLevel(level);
            SCOPED_TRACE(::testing::Message()
                         << n << " reads, target " << target_len
                         << ", tier " << simd::levelName(got));
            reconstructOneWayInto(views.data(), n, target_len,
                                  scratch_.bma, out_);
            ASSERT_EQ(out_, fwd);
            reconstructOneWayReversed(views.data(), n, target_len,
                                      scratch_.bma, out_);
            ASSERT_EQ(out_, bwd);
            reconstructTwoSidedInto(views.data(), n, target_len,
                                    scratch_, out_);
            ASSERT_EQ(out_, both);
        }
    }

    const simd::Level entry_ = simd::activeLevel();
    TwoSidedScratch scratch_;
    Strand out_;
};

/** Coverage drawn to land on and around mask-word boundaries. */
size_t
drawCoverage(Rng &rng)
{
    static const size_t kEdges[] = {1,  2,  7,  8,  9,  15, 16, 17,
                                    31, 32, 33, 63, 64, 65, 66, 80};
    if (rng.nextBelow(2) == 0)
        return kEdges[rng.nextBelow(sizeof kEdges / sizeof kEdges[0])];
    return 1 + size_t(rng.nextBelow(80));
}

TEST_F(BmaDifferential, NoisyClustersMatchReference)
{
    Rng rng(2024);
    for (int iter = 0; iter < fuzzIters(120); ++iter) {
        const double p = 0.2 * double(rng.nextBelow(101)) / 100.0;
        const ErrorModel model = rng.nextBelow(2) == 0
            ? ErrorModel::uniform(p)
            : ErrorModel::nanopore(p);
        IdsChannel ch(model);
        const size_t len = size_t(rng.nextBelow(601));
        const size_t cov = drawCoverage(rng);
        auto reads = ch.transmitCluster(randomStrand(len, rng), cov, rng);
        // Some reads end early: emptied, cut below one window, or cut
        // anywhere.
        for (auto &r : reads) {
            switch (rng.nextBelow(12)) {
            case 0:
                r.clear();
                break;
            case 1:
                r.resize(std::min(r.size(), size_t(rng.nextBelow(8))));
                break;
            case 2:
                r.resize(size_t(rng.nextBelow(r.size() + 1)));
                break;
            default:
                break;
            }
        }
        // The target is the strand's length, or any length 0-600.
        const size_t target =
            rng.nextBelow(3) == 0 ? size_t(rng.nextBelow(601)) : len;
        check(reads, target);
        if (HasFatalFailure())
            return;
    }
}

TEST_F(BmaDifferential, ShortTargetsAndTinyReads)
{
    Rng rng(7);
    IdsChannel ch(ErrorModel::uniform(0.15));
    for (int iter = 0; iter < fuzzIters(200); ++iter) {
        const size_t len = size_t(rng.nextBelow(12));
        auto reads = ch.transmitCluster(randomStrand(len, rng),
                                        drawCoverage(rng), rng);
        for (size_t target : {size_t(0), size_t(1), size_t(7), size_t(8),
                              size_t(9), len}) {
            check(reads, target);
            if (HasFatalFailure())
                return;
        }
    }
}

TEST_F(BmaDifferential, ErrorFreeRunsCrossWordBoundaries)
{
    // Identical copies make one unanimous run per pass, which the core
    // extends past its 8-base window; a single late substitution in
    // one read ends it at a chosen offset on either side of the 8- and
    // 32-byte compare boundaries.
    Rng rng(11);
    for (int iter = 0; iter < fuzzIters(60); ++iter) {
        const size_t len = 1 + size_t(rng.nextBelow(600));
        const Strand s = randomStrand(len, rng);
        std::vector<Strand> reads(drawCoverage(rng), s);
        if (rng.nextBelow(2) == 0) {
            Strand &r = reads[rng.nextBelow(reads.size())];
            const size_t at = size_t(rng.nextBelow(len));
            r[at] = baseFromBits((unsigned(r[at]) + 1) & 3);
        }
        if (rng.nextBelow(3) == 0)
            reads.back().resize(size_t(rng.nextBelow(len + 1)));
        check(reads, len);
        if (HasFatalFailure())
            return;
        check(reads, size_t(rng.nextBelow(len + 1)));
        if (HasFatalFailure())
            return;
    }
}

TEST_F(BmaDifferential, ReadCountsAndShortReadsOnBothGathers)
{
    // Odd counts leave the byte-compare gather's last lane unpaired;
    // 1, 16/17 and 64/65 reads sit on the fixed-width limit and on
    // the runtime width's word edges. Reads shorter than one 8-base
    // window and empty reads are mixed in.
    Rng rng(31);
    const size_t counts[] = {1, 2, 3, 5, 7, 9, 15, 16, 17, 31, 33,
                             63, 64, 65};
    for (int iter = 0; iter < fuzzIters(40); ++iter) {
        for (size_t cov : counts) {
            const double p = 0.12 * double(rng.nextBelow(101)) / 100.0;
            IdsChannel ch(ErrorModel::uniform(p));
            const size_t len = size_t(rng.nextBelow(200));
            auto reads =
                ch.transmitCluster(randomStrand(len, rng), cov, rng);
            for (auto &r : reads) {
                switch (rng.nextBelow(6)) {
                case 0:
                    r.clear();
                    break;
                case 1:
                    r.resize(std::min(r.size(), size_t(rng.nextBelow(8))));
                    break;
                default:
                    break;
                }
            }
            check(reads, len);
            if (HasFatalFailure())
                return;
            check(reads, size_t(rng.nextBelow(len + 9)));
            if (HasFatalFailure())
                return;
        }
    }
}

TEST_F(BmaDifferential, ClusterSizeCapStillThrows)
{
    const Strand s = strandFromString("ACGTACGTAC");
    std::vector<StrandView> views(65534, StrandView(s));
    BmaScratch scratch;
    Strand out;
    reconstructOneWayInto(views.data(), views.size(), 4, scratch, out);
    EXPECT_EQ(out, strandFromString("ACGT"));
    views.emplace_back(s);
    EXPECT_THROW(reconstructOneWayInto(views.data(), views.size(), 4,
                                       scratch, out),
                 std::invalid_argument);
    EXPECT_THROW(reconstructOneWayReversed(views.data(), views.size(), 4,
                                           scratch, out),
                 std::invalid_argument);
}

} // namespace
} // namespace dnastore
