#include <gtest/gtest.h>

#include "layout/matrix.hh"

namespace dnastore {
namespace {

TEST(SymbolMatrix, ZeroInitialized)
{
    SymbolMatrix m(3, 5);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 5u);
    for (size_t r = 0; r < 3; ++r)
        for (size_t c = 0; c < 5; ++c)
            EXPECT_EQ(m.at(r, c), 0u);
}

TEST(SymbolMatrix, EmptyShapeRejected)
{
    EXPECT_THROW(SymbolMatrix(0, 5), std::invalid_argument);
    EXPECT_THROW(SymbolMatrix(5, 0), std::invalid_argument);
}

TEST(SymbolMatrix, ElementAccessIsRowMajorConsistent)
{
    SymbolMatrix m(4, 4);
    m.at(2, 3) = 99;
    m.at(3, 2) = 7;
    EXPECT_EQ(m.at(2, 3), 99u);
    EXPECT_EQ(m.at(3, 2), 7u);
}

TEST(SymbolMatrix, ColumnReadsOneMolecule)
{
    SymbolMatrix m(3, 4);
    for (size_t r = 0; r < 3; ++r)
        m.at(r, 2) = uint32_t(10 * (r + 1));
    EXPECT_EQ(m.column(2), std::vector<uint32_t>({ 10, 20, 30 }));
    // Other columns untouched.
    EXPECT_EQ(m.column(1), std::vector<uint32_t>({ 0, 0, 0 }));
}

TEST(SymbolMatrix, ColumnValidation)
{
    SymbolMatrix m(3, 4);
    EXPECT_THROW(m.column(4), std::out_of_range);
}

} // namespace
} // namespace dnastore
