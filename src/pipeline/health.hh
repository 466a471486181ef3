/**
 * @file
 * Pool health and scrub reports — the measure-and-repair half of the
 * durability loop, one definition shared by the pipeline that fills
 * them and the `dnastore::api` surface that returns them.
 *
 * StorageSimulator::probeHealth() threads one full-depth probe decode
 * up from the decoder: per-cluster live reads and consensus
 * agreement, the Reed-Solomon correction split (true errors vs
 * erasures) and the remaining correction margin per codeword.
 * StorageSimulator::scrub() acts on it: clusters the ScrubOptions call
 * low-margin are re-synthesized at full depth from the RS-repaired
 * data.
 *
 * Both report types render to JSON deterministically: fixed key
 * order, locale-independent number formatting ("%.12g" with the
 * decimal point forced to '.'), no timestamps — byte-identical output
 * for byte-identical state, at any thread count. CI diffs these
 * renderings across thread counts and SIMD tiers.
 */

#ifndef DNASTORE_PIPELINE_HEALTH_HH
#define DNASTORE_PIPELINE_HEALTH_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dnastore {

/**
 * One cluster's probe: the read arena behind one strand. Filled by
 * UnitDecoder::decode() only when a probe sink is passed — the
 * agreement computation costs one edit distance per read, which the
 * hot paths skip.
 */
struct ClusterHealthEntry
{
    size_t reads = 0;     //!< Live reads consensus saw (aging loses them).
    bool indexOk = false; //!< Consensus framed and indexed validly.
    bool claimed = false; //!< Won its column claim (first claim wins).
    uint64_t column = 0;  //!< Claimed column (valid when indexOk).

    /**
     * Mean per-read agreement with the cluster consensus:
     * 1 - editDistance(read, consensus) / strandLen, averaged over
     * the cluster's reads; 0 for empty clusters. Low agreement means
     * noisy or decayed reads even when the index still parses.
     */
    double agreement = 0.0;
};

/** One codeword's probe: the RS decode across the unit. */
struct CodewordHealthEntry
{
    bool ok = false;              //!< RS decoded this codeword.
    size_t errorsCorrected = 0;   //!< True errors (cost 2 parity each).
    size_t erasuresCorrected = 0; //!< Erasures (cost 1 parity each).

    /**
     * Remaining correction budget: paritySymbols - (2*errors +
     * erasures). -1 when the codeword failed (budget exhausted).
     */
    int margin = 0;
};

/** Unit-level health snapshot (StorageSimulator::probeHealth). */
struct HealthReport
{
    size_t clusters = 0;
    size_t liveReads = 0;       //!< Reads surviving across clusters.
    size_t poolCoverage = 0;    //!< Pool depth when fully populated.
    size_t emptyClusters = 0;   //!< Clusters aged down to zero reads.
    size_t indexFaults = 0;
    size_t erasedColumns = 0;
    size_t failedCodewords = 0;
    size_t agedEpochs = 0;      //!< Decay epochs applied so far.
    bool exact = false;         //!< Full-depth decode was clean.
    double meanAgreement = 0.0; //!< Over non-empty clusters.
    double minAgreement = 0.0;  //!< Over non-empty clusters.
    int minMargin = 0;          //!< Min codeword margin (-1 = failed).
    std::vector<ClusterHealthEntry> perCluster;
    std::vector<CodewordHealthEntry> perCodeword;

    /**
     * Deterministic JSON rendering (fixed key order, locale-proof
     * numbers). @p detail includes the per-cluster and per-codeword
     * arrays; without it only the unit-level summary is emitted.
     */
    std::string toJson(bool detail = true) const;
};

/**
 * When the scrubber repairs a cluster (StorageSimulator::scrub). The
 * defaults select only clusters that lost their column claim — the
 * minimal "repair what is already failing" policy; raise the
 * thresholds to repair proactively.
 */
struct ScrubOptions
{
    /** Repair clusters with fewer live reads than this. */
    size_t minReads = 0;

    /** Repair clusters whose consensus agreement falls below this. */
    double minAgreement = 0.0;

    /** Rewrite every cluster regardless of margin. */
    bool repairAll = false;

    /**
     * The scrub rule, run by Store::scrub and a scrubbing TrialJob:
     * minAgreement finite (a NaN selects nothing). The first broken
     * constraint, or nullptr.
     */
    const char *check() const;
};

/** What one scrub pass did (StorageSimulator::scrub). */
struct ScrubReport
{
    size_t clustersScanned = 0;
    size_t lowMargin = 0; //!< Clusters the policy selected.
    size_t repaired = 0;  //!< Clusters rewritten at full depth.

    /**
     * Clusters selected but not repairable: some codeword failed at
     * the current read depth, so every column holds an untrusted
     * symbol and no rewrite is safe. Transient — more coverage (or a
     * later, luckier consensus) can clear it.
     */
    size_t unrepairable = 0;
    size_t failedCodewords = 0; //!< Codewords failing the probe decode.
    size_t readsRewritten = 0;
    bool repairable = false; //!< Probe decode recovered every codeword.

    /** Deterministic JSON rendering (fixed key order). */
    std::string toJson() const;
};

} // namespace dnastore

#endif // DNASTORE_PIPELINE_HEALTH_HH
