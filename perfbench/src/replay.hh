/**
 * @file
 * The unit write and read paths, replayed layer by layer from outside
 * the library.
 *
 * Each function below redoes what UnitEncoder::encode, ReadPool
 * generation and UnitDecoder::decode do, but by calling the layers'
 * public functions one at a time, each inside a span. The replay must
 * produce exactly what the library produces — the same strands, the
 * same per-codeword corrections, the same raw stream — or the traced
 * run fails (see the compare* helpers). Span names are the layer
 * metric names of BENCHMARK.json without their unit suffix.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <memory>
#include <string>
#include <vector>

#include "channel/read_pool.hh"
#include "channel/stressors.hh"
#include "cluster/clusterer.hh"
#include "dna/primer.hh"
#include "ecc/gf.hh"
#include "ecc/rs.hh"
#include "layout/codeword_map.hh"
#include "pipeline/bundle.hh"
#include "pipeline/config.hh"
#include "pipeline/decoder.hh"
#include "pipeline/encoder.hh"
#include "trace.hh"

namespace perfbench {

/** Per-geometry tables the replay reuses across ops (built once). */
class UnitCodec
{
  public:
    UnitCodec(const dnastore::StorageConfig &cfg,
              dnastore::LayoutScheme scheme);

    UnitCodec(const UnitCodec &) = delete;
    UnitCodec &operator=(const UnitCodec &) = delete;

    const dnastore::StorageConfig cfg;
    const dnastore::LayoutScheme scheme;
    const bool priority; //!< DnaMapper bit order and placement.
    const dnastore::GaloisField gf;
    const dnastore::ReedSolomon rs; // holds a reference to gf
    const std::unique_ptr<dnastore::CodewordMap> map;
    const dnastore::UnitEncoder encoder;
    const dnastore::PrimerPair primers;
};

/** Write path: bundle -> strands (UnitEncoder::encode, replayed). */
std::vector<dnastore::Strand> replayEncode(const UnitCodec &codec,
                                           const dnastore::FileBundle &bundle,
                                           Tracer &tracer);

/** Channel synthesis: the pool StorageSimulator::store builds. */
std::unique_ptr<dnastore::ReadPool> replaySynthesize(
    const UnitCodec &codec, const std::vector<dnastore::Strand> &strands,
    const dnastore::ErrorModel &model, size_t coverage, uint64_t seed,
    Tracer &tracer);

/** Read path from grouped reads (UnitDecoder::decode, replayed). */
dnastore::DecodedUnit replayDecode(const UnitCodec &codec,
                                   const dnastore::ReadBatch &batch,
                                   Tracer &tracer);

/** What the clustered read path adds to a decode. */
struct ClusterOutcome
{
    size_t clustersFound = 0;
    dnastore::ClusterQuality quality;
};

/**
 * Clustered read path: round-robin soup, clusterReads, scoring,
 * regrouping, then replayDecode (retrieveClustered, replayed).
 */
dnastore::DecodedUnit replayClusteredDecode(
    const UnitCodec &codec, const dnastore::ReadBatch &pooled,
    const dnastore::ClusterParams &params, Tracer &tracer,
    ClusterOutcome *outcome);

/**
 * "" when the two decodes agree on every checked field (per-codeword
 * corrections and their error/erasure split, erased columns, failed
 * codewords, the raw stream), otherwise the first difference.
 */
std::string compareDecoded(const dnastore::DecodedUnit &replay,
                           const dnastore::DecodedUnit &library);

/** "" when @p a equals @p b strand for strand, else the first diff. */
std::string compareStrands(const std::vector<dnastore::Strand> &replay,
                           const std::vector<dnastore::Strand> &library);

/** Per-op layer counters of one decode (ecc.*, consensus.*). */
void countDecode(const dnastore::DecodedUnit &decoded, Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
