/**
 * @file
 * Unit decoder: clustered noisy reads -> consensus -> ECC -> files.
 *
 * Implements the read path (section 6.1.2): per-cluster consensus with
 * the two-sided reconstruction, ordering-index parsing, matrix
 * reassembly with erasures for lost or unplaceable molecules,
 * Reed-Solomon errors-and-erasures decoding along the layout map, and
 * bundle deserialization. Clustering itself is perfect, as in the
 * paper ("our data is perfectly clustered"): cluster i holds reads of
 * molecule i, but empty clusters and index decoding faults still
 * produce erasures.
 */

#ifndef DNASTORE_PIPELINE_DECODER_HH
#define DNASTORE_PIPELINE_DECODER_HH

#include <memory>
#include <vector>

#include "dna/packed_strand.hh"
#include "dna/primer.hh"
#include "dna/strand.hh"
#include "ecc/gf.hh"
#include "ecc/rs.hh"
#include "layout/codeword_map.hh"
#include "layout/matrix.hh"
#include "pipeline/bundle.hh"
#include "pipeline/config.hh"
#include "pipeline/health.hh"

namespace dnastore {

/** Per-decode bookkeeping used by the evaluation. */
struct DecodeStats
{
    size_t erasedColumns = 0;   //!< Columns lost (no reads / no index).
    size_t indexFaults = 0;     //!< Strands with unusable indexes.
    size_t failedCodewords = 0; //!< Codewords RS could not decode.

    /** Errors detected and corrected per codeword (Figure 11's y-axis). */
    std::vector<size_t> errorsPerCodeword;

    /**
     * The RS correction split behind errorsPerCodeword: true errors
     * (unknown position, cost 2 parity each) and erasures (known
     * position, cost 1) per codeword. errorsPerCodeword[j] ==
     * rsErrors[j] + rsErasures[j]; the health layer's remaining-margin
     * math (parity - 2*errors - erasures) needs the split, not the
     * sum. Empty when the decode predates the probe (never here).
     */
    std::vector<size_t> rsErrors;
    std::vector<size_t> rsErasures;

    /** Per-codeword decode verdict (1 = decoded, 0 = failed). */
    std::vector<uint8_t> codewordOk;

    /** Total corrected symbol errors across codewords. */
    size_t totalCorrected() const;
};

/** Result of decoding one unit. */
struct DecodedUnit
{
    FileBundle bundle;     //!< Recovered files (may be partial).
    bool bundleOk = false; //!< Directory parsed and files split.
    bool exact = false;    //!< Every codeword decoded cleanly.
    DecodeStats stats;
    std::vector<uint8_t> rawStream; //!< Post-ECC serialized stream.
};

/** Decoder for one storage configuration and layout scheme. */
class UnitDecoder
{
  public:
    /**
     * Consensus is the paper's two-sided reconstruction, which always
     * yields exactly cfg.strandLen() bases.
     *
     * @param cfg    Unit geometry.
     * @param scheme Layout used at encoding time.
     */
    UnitDecoder(const StorageConfig &cfg, LayoutScheme scheme);

    /**
     * Decode a unit from clustered reads.
     *
     * @param clusters        clusters[i] holds the noisy reads of
     *                        molecule i (may be empty = erasure).
     * @param forced_erasures Columns treated as erased regardless of
     *                        their reads; used to emulate reduced
     *                        effective redundancy (Figure 13).
     */
    DecodedUnit decode(
        const std::vector<std::vector<Strand>> &clusters,
        const std::vector<size_t> &forced_erasures = {}) const;

    /**
     * Decode from a view batch — the zero-copy hot path used by the
     * simulator: reads stay wherever the pool put them and only
     * StrandViews flow through consensus. Bit-identical to the
     * vector-of-vectors overload.
     *
     * @param probe When non-null, per-cluster health telemetry
     *        (read counts, index validity, column claims, consensus
     *        agreement) is collected into it, one slot per cluster —
     *        the measure half of the durability loop. Slot-per-cluster
     *        writes keep the probe bit-identical at any thread count;
     *        the decode result itself is unaffected.
     */
    DecodedUnit decode(
        const ReadBatch &batch,
        const std::vector<size_t> &forced_erasures = {},
        std::vector<ClusterHealthEntry> *probe = nullptr) const;

    const StorageConfig &config() const { return cfg_; }
    LayoutScheme scheme() const { return scheme_; }

  private:
    StorageConfig cfg_;
    LayoutScheme scheme_;
    GaloisField gf_;
    ReedSolomon rs_;
    std::unique_ptr<CodewordMap> map_;
    PrimerPair primers_;
};

} // namespace dnastore

#endif // DNASTORE_PIPELINE_DECODER_HH
