/**
 * @file
 * Error model for the DNA read/write channel.
 *
 * Follows the paper's channel formulation (section 3): each position of
 * the original strand independently suffers an insertion, a deletion,
 * or a substitution, with configurable per-type probabilities. The
 * default split is uniform (p/3 each), matching the paper; asymmetric
 * splits reproduce the purple/brown curves of Figure 5 and the
 * NGS/nanopore breakdowns discussed in section 8.
 */

#ifndef DNASTORE_CHANNEL_ERROR_MODEL_HH
#define DNASTORE_CHANNEL_ERROR_MODEL_HH

namespace dnastore {

/** Per-position probabilities of each error type. */
struct ErrorModel
{
    double insertion = 0.0;    //!< P(insert a random base before i).
    double deletion = 0.0;     //!< P(delete base i).
    double substitution = 0.0; //!< P(replace base i with another base).

    /** Total per-position error probability. */
    double total() const { return insertion + deletion + substitution; }

    /** Uniform split: p/3 insertion, p/3 deletion, p/3 substitution. */
    static ErrorModel uniform(double p);

    /** Substitutions only (the skew-free channel of Fig. 5, brown). */
    static ErrorModel substitutionOnly(double p);

    /** Indels only, evenly split (Fig. 5, purple: 5% INS + 5% DEL). */
    static ErrorModel indelOnly(double p);

    /** Explicit per-type rates. */
    static ErrorModel custom(double ins, double del, double sub);

    /**
     * NGS-like breakdown (section 8): ~27% of errors are indels,
     * the rest substitutions, split evenly between ins and del.
     */
    static ErrorModel ngs(double p);

    /** Nanopore-like breakdown (section 8): ~60% of errors are indels. */
    static ErrorModel nanopore(double p);

    /**
     * The first broken constraint, or nullptr: each rate finite, then
     * each >= 0, then total() at most 1.
     */
    const char *check() const;
};

} // namespace dnastore

#endif // DNASTORE_CHANNEL_ERROR_MODEL_HH
