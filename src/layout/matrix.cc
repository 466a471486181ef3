#include "layout/matrix.hh"

#include <stdexcept>

namespace dnastore {

SymbolMatrix::SymbolMatrix(size_t rows, size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0)
{
    if (rows == 0 || cols == 0)
        throw std::invalid_argument("SymbolMatrix: empty dimensions");
}

std::vector<uint32_t>
SymbolMatrix::column(size_t col) const
{
    if (col >= cols_)
        throw std::out_of_range("SymbolMatrix: column out of range");
    std::vector<uint32_t> out(rows_);
    for (size_t r = 0; r < rows_; ++r)
        out[r] = at(r, col);
    return out;
}

} // namespace dnastore
