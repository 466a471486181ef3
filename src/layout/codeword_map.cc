#include "layout/codeword_map.hh"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace dnastore {

CodewordMap::CodewordMap(size_t rows, size_t cols)
    : rows_(rows), cols_(cols)
{
    if (rows == 0 || cols == 0)
        throw std::invalid_argument("CodewordMap: empty shape");
}

std::vector<uint32_t>
CodewordMap::gather(const SymbolMatrix &m, size_t j) const
{
    std::vector<uint32_t> out;
    gatherInto(m, j, out);
    return out;
}

void
CodewordMap::gatherInto(const SymbolMatrix &m, size_t j,
                        std::vector<uint32_t> &out, size_t count) const
{
    out.resize(std::min(count, cols_));
    const RowCycle c = rowCycle(j);
    for (size_t t = 0, r = c.start; t < out.size(); ++t) {
        out[t] = m.at(c.rows[r], t);
        r = r + 1 == c.size ? 0 : r + 1;
    }
}

void
CodewordMap::scatter(SymbolMatrix &m, size_t j,
                     const std::vector<uint32_t> &symbols,
                     size_t from) const
{
    if (symbols.size() != cols_)
        throw std::invalid_argument("CodewordMap: bad codeword length");
    const RowCycle c = rowCycle(j);
    for (size_t t = from, r = (c.start + from) % c.size; t < cols_; ++t) {
        m.at(c.rows[r], t) = symbols[t];
        r = r + 1 == c.size ? 0 : r + 1;
    }
}

BaselineMap::BaselineMap(size_t rows, size_t cols)
    : CodewordMap(rows, cols), row_(rows)
{
    std::iota(row_.begin(), row_.end(), size_t(0));
}

CodewordMap::RowCycle
BaselineMap::rowCycle(size_t j) const
{
    return { &row_[j], 1, 0 };
}

CodewordPos
BaselineMap::locate(size_t row, size_t col) const
{
    return { row, col };
}

GiniMap::GiniMap(size_t rows, size_t cols)
    : GiniClassMap(rows, cols, {})
{
}

GiniClassMap::GiniClassMap(size_t rows, size_t cols,
                           const std::vector<size_t> &reserved_rows)
    : CodewordMap(rows, cols), reserved_(reserved_rows),
      classOfRow_(rows, 0), isReserved_(rows, false)
{
    if (reserved_.size() >= rows)
        throw std::invalid_argument(
            "GiniClassMap: all rows reserved, nothing to interleave");
    for (size_t i = 0; i < reserved_.size(); ++i) {
        size_t row = reserved_[i];
        if (row >= rows)
            throw std::invalid_argument("GiniClassMap: bad reserved row");
        if (isReserved_[row])
            throw std::invalid_argument(
                "GiniClassMap: duplicate reserved row");
        isReserved_[row] = true;
        classOfRow_[row] = i;
    }
    for (size_t row = 0; row < rows; ++row) {
        if (!isReserved_[row]) {
            classOfRow_[row] = interleaved_.size();
            interleaved_.push_back(row);
        }
    }
}

CodewordMap::RowCycle
GiniClassMap::rowCycle(size_t j) const
{
    if (j < reserved_.size())
        return { &reserved_[j], 1, 0 };
    return { interleaved_.data(), interleaved_.size(), j - reserved_.size() };
}

CodewordPos
GiniClassMap::locate(size_t row, size_t col) const
{
    if (isReserved_[row])
        return { classOfRow_[row], col };
    size_t n_inter = interleaved_.size();
    size_t local = classOfRow_[row];
    size_t jj = (local + n_inter - (col % n_inter)) % n_inter;
    return { reserved_.size() + jj, col };
}

} // namespace dnastore
