/**
 * @file
 * The Reed-Solomon encoding matrix of the DNA storage architecture.
 *
 * Following the paper's Figure 1: the unit of encoding/decoding is a
 * matrix of symbols in which every column is synthesized as one DNA
 * molecule and ECC codewords are laid across the matrix by a
 * CodewordMap (rows in the baseline, diagonals under Gini).
 */

#ifndef DNASTORE_LAYOUT_MATRIX_HH
#define DNASTORE_LAYOUT_MATRIX_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dnastore {

/** A dense rows x cols matrix of GF(2^m) symbols. */
class SymbolMatrix
{
  public:
    /** Create a zero-initialized matrix. */
    SymbolMatrix(size_t rows, size_t cols);

    /** Number of rows (symbols per molecule). */
    size_t rows() const { return rows_; }

    /** Number of columns (molecules per encoding unit). */
    size_t cols() const { return cols_; }

    /** Mutable element access (row-major). */
    uint32_t &
    at(size_t row, size_t col)
    {
        return data_[row * cols_ + col];
    }

    /** Element access. */
    uint32_t
    at(size_t row, size_t col) const
    {
        return data_[row * cols_ + col];
    }

    /** Copy out one column (the symbols of one molecule). */
    std::vector<uint32_t> column(size_t col) const;

  private:
    size_t rows_;
    size_t cols_;
    std::vector<uint32_t> data_;
};

} // namespace dnastore

#endif // DNASTORE_LAYOUT_MATRIX_HH
