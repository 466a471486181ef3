#include <gtest/gtest.h>

#include "channel/read_pool.hh"

namespace dnastore {
namespace {

std::vector<Strand>
makeReferences(size_t count, size_t len, Rng &rng)
{
    std::vector<Strand> refs(count);
    for (auto &s : refs) {
        s.resize(len);
        for (auto &b : s)
            b = baseFromBits(unsigned(rng.nextBelow(4)));
    }
    return refs;
}

TEST(ReadPool, ShapeMatchesRequest)
{
    Rng rng(1);
    auto refs = makeReferences(10, 50, rng);
    IdsChannel ch(ErrorModel::uniform(0.05));
    ReadPool pool(refs, ch, 8, rng);
    EXPECT_EQ(pool.clusters(), 10u);
    EXPECT_EQ(pool.maxCoverage(), 8u);
    EXPECT_EQ(pool.reads(0, 8).size(), 8u);
    EXPECT_EQ(pool.reads(9, 1).size(), 1u);
}

TEST(ReadPool, ProgressiveCoverageIsPrefix)
{
    // The paper's methodology adds reads progressively; lower coverage
    // must be a strict prefix of higher coverage (monotone info).
    Rng rng(2);
    auto refs = makeReferences(3, 60, rng);
    IdsChannel ch(ErrorModel::uniform(0.1));
    ReadPool pool(refs, ch, 10, rng);
    auto low = pool.reads(1, 4);
    auto high = pool.reads(1, 10);
    for (size_t i = 0; i < low.size(); ++i)
        EXPECT_EQ(low[i], high[i]);
}

TEST(ReadPool, OutOfRangeRejected)
{
    Rng rng(3);
    auto refs = makeReferences(2, 30, rng);
    IdsChannel ch(ErrorModel::uniform(0.05));
    ReadPool pool(refs, ch, 5, rng);
    EXPECT_THROW(pool.reads(2, 3), std::out_of_range);
    EXPECT_THROW(pool.reads(0, 6), std::out_of_range);
}

TEST(ReadPool, FillBatchViewsMatchReads)
{
    Rng rng(10);
    auto refs = makeReferences(6, 40, rng);
    IdsChannel ch(ErrorModel::uniform(0.08));
    ReadPool pool(refs, ch, 7, 1234, 1);
    ReadBatch batch;
    for (size_t cov : { size_t(0), size_t(3), size_t(7) }) {
        pool.fillBatch(cov, batch);
        ASSERT_EQ(batch.clusters(), pool.clusters());
        for (size_t c = 0; c < pool.clusters(); ++c) {
            auto copies = pool.reads(c, cov);
            ASSERT_EQ(batch.clusterSize(c), copies.size());
            for (size_t r = 0; r < copies.size(); ++r)
                EXPECT_EQ(batch.cluster(c)[r].toStrand(), copies[r]);
        }
    }
}

TEST(ReadPool, FillBatchPerClusterCounts)
{
    Rng rng(11);
    auto refs = makeReferences(4, 30, rng);
    IdsChannel ch(ErrorModel::uniform(0.05));
    ReadPool pool(refs, ch, 5, 99, 1);
    ReadBatch batch;
    std::vector<size_t> counts{ 0, 5, 2, 4 };
    pool.fillBatch(counts, batch);
    for (size_t c = 0; c < counts.size(); ++c)
        EXPECT_EQ(batch.clusterSize(c), counts[c]);
    EXPECT_THROW(pool.fillBatch(std::vector<size_t>{ 1, 2 }, batch),
                 std::invalid_argument);
    EXPECT_THROW(pool.fillBatch(std::vector<size_t>{ 6, 0, 0, 0 },
                                batch),
                 std::out_of_range);
}

TEST(ReadPool, PackedPoolHoldsIdenticalReads)
{
    // Packed storage is a memory knob only: the same seed must yield
    // bit-identical reads through both reads() and fillBatch().
    Rng rng(12);
    auto refs = makeReferences(5, 60, rng);
    IdsChannel ch(ErrorModel::uniform(0.1));
    ReadPool flat(refs, ch, 6, 777, 1, ReadStorage::Flat);
    ReadPool packed(refs, ch, 6, 777, 1, ReadStorage::Packed);
    for (size_t c = 0; c < flat.clusters(); ++c)
        EXPECT_EQ(flat.reads(c, 6), packed.reads(c, 6));
    ReadBatch fb, pb;
    flat.fillBatch(4, fb);
    packed.fillBatch(4, pb);
    ASSERT_EQ(fb.views.size(), pb.views.size());
    for (size_t i = 0; i < fb.views.size(); ++i)
        EXPECT_EQ(fb.views[i].toStrand(), pb.views[i].toStrand());
}

TEST(ReadPool, ThreadedGenerationIsBitIdentical)
{
    Rng rng(13);
    auto refs = makeReferences(8, 50, rng);
    IdsChannel ch(ErrorModel::uniform(0.07));
    for (ReadStorage storage :
         { ReadStorage::Flat, ReadStorage::Packed }) {
        ReadPool serial(refs, ch, 5, 42, 1, storage);
        ReadPool threaded(refs, ch, 5, 42, 4, storage);
        for (size_t c = 0; c < serial.clusters(); ++c)
            EXPECT_EQ(serial.reads(c, 5), threaded.reads(c, 5));
    }
}

TEST(ReadPool, SampleCountsRespectPoolCap)
{
    Rng rng(4);
    auto refs = makeReferences(200, 30, rng);
    IdsChannel ch(ErrorModel::uniform(0.05));
    ReadPool pool(refs, ch, 6, rng);
    auto counts = pool.sampleCounts(CoverageModel::gamma(6.0, 2.0), rng);
    ASSERT_EQ(counts.size(), 200u);
    for (size_t c : counts) {
        EXPECT_GE(c, 1u);
        EXPECT_LE(c, 6u);
    }
}

} // namespace
} // namespace dnastore
