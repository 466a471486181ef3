/**
 * @file
 * Codeword layouts: how ECC codewords are threaded through the matrix.
 *
 * The baseline architecture (Figure 1) makes each matrix row one
 * codeword, so all the errors that pile up in the middle symbols of
 * every molecule land in the same few codewords. Gini (section 4.2,
 * Figure 8) stripes each codeword diagonally so it cycles through all
 * row positions, spreading middle-of-molecule errors evenly over all
 * codewords while still touching every column exactly once (which
 * preserves the baseline's erasure protection: a lost molecule costs
 * each codeword exactly one symbol).
 */

#ifndef DNASTORE_LAYOUT_CODEWORD_MAP_HH
#define DNASTORE_LAYOUT_CODEWORD_MAP_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "layout/matrix.hh"

namespace dnastore {

/** A cell of the encoding matrix. */
struct MatrixPos
{
    size_t row;
    size_t col;

    bool
    operator==(const MatrixPos &o) const
    {
        return row == o.row && col == o.col;
    }
};

/** Identifies a symbol within a codeword. */
struct CodewordPos
{
    size_t codeword; //!< Codeword index in [0, rows).
    size_t symbol;   //!< Symbol index within the codeword, in [0, cols).
};

/**
 * Abstract bijection between (codeword, symbol) pairs and matrix cells.
 *
 * Invariants every implementation must satisfy (property-tested):
 *  - there are exactly `rows` codewords of `cols` symbols each;
 *  - position() is a bijection onto the rows x cols cell grid;
 *  - every codeword visits every column exactly once (erasure safety).
 *
 * Every layout here puts symbol t in column t, so a map is defined by
 * the cycle of rows each codeword walks; gather and scatter step
 * along it with no per-symbol call or division.
 */
class CodewordMap
{
  public:
    virtual ~CodewordMap() = default;

    /** Number of codewords (= matrix rows). */
    size_t codewords() const { return rows_; }

    /** Symbols per codeword (= matrix columns). */
    size_t length() const { return cols_; }

    /** Matrix cell storing symbol @p t of codeword @p j. */
    MatrixPos
    position(size_t j, size_t t) const
    {
        const RowCycle c = rowCycle(j);
        return { c.rows[(c.start + t) % c.size], t };
    }

    /** Inverse of position(). */
    virtual CodewordPos locate(size_t row, size_t col) const = 0;

    /** Collect codeword @p j from the matrix. */
    std::vector<uint32_t> gather(const SymbolMatrix &m, size_t j) const;

    /**
     * Collect the first @p count symbols of codeword @p j (all of them
     * by default) into a reusable buffer, resized to fit.
     */
    void gatherInto(const SymbolMatrix &m, size_t j,
                    std::vector<uint32_t> &out,
                    size_t count = SIZE_MAX) const;

    /**
     * Write symbols [@p from, length()) of codeword @p j (all of them
     * by default) back into the matrix.
     */
    void scatter(SymbolMatrix &m, size_t j,
                 const std::vector<uint32_t> &symbols,
                 size_t from = 0) const;

  protected:
    CodewordMap(size_t rows, size_t cols);

    /** Symbol t of a codeword lies in row rows[(start + t) mod size]. */
    struct RowCycle
    {
        const size_t *rows;
        size_t size;
        size_t start;
    };

    /** The row cycle of codeword @p j. */
    virtual RowCycle rowCycle(size_t j) const = 0;

    size_t rows_;
    size_t cols_;
};

/** Baseline layout: codeword j is matrix row j (Figure 1). */
class BaselineMap : public CodewordMap
{
  public:
    BaselineMap(size_t rows, size_t cols);

    CodewordPos locate(size_t row, size_t col) const override;

  protected:
    RowCycle rowCycle(size_t j) const override;

  private:
    std::vector<size_t> row_; // row_[j] = j
};

/**
 * Two-class Gini layout (Figure 8b): a set of reserved rows is kept as
 * plain row codewords (a separate, more reliable class when the
 * reserved rows are the outermost ones), while the remaining rows are
 * diagonally interleaved among themselves.
 *
 * Codeword indices [0, reserved.size()) are the reserved rows in the
 * given order; the rest are the interleaved class.
 */
class GiniClassMap : public CodewordMap
{
  public:
    /**
     * @param rows, cols Matrix shape.
     * @param reserved_rows Rows excluded from interleaving (each < rows,
     *        no duplicates, and strictly fewer than `rows` entries).
     */
    GiniClassMap(size_t rows, size_t cols,
                 const std::vector<size_t> &reserved_rows);

    CodewordPos locate(size_t row, size_t col) const override;

    /** Number of reserved (non-interleaved) codewords. */
    size_t reservedCount() const { return reserved_.size(); }

  protected:
    RowCycle rowCycle(size_t j) const override;

  private:
    std::vector<size_t> reserved_;     // codeword index -> row
    std::vector<size_t> interleaved_;  // class-local index -> row
    std::vector<size_t> classOfRow_;   // row -> position in its class
    std::vector<bool> isReserved_;     // row -> reserved?
};

/**
 * Gini layout: codeword j occupies cell ((j + t) mod rows, t) for
 * symbol t — a diagonal stripe that wraps through all rows, advancing
 * one column per symbol (Figure 8a). Every codeword sees every column
 * once and every row position essentially cols/rows times. It is the
 * two-class layout with no reserved rows.
 */
class GiniMap : public GiniClassMap
{
  public:
    GiniMap(size_t rows, size_t cols);
};

} // namespace dnastore

#endif // DNASTORE_LAYOUT_CODEWORD_MAP_HH
