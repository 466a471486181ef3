#include "pipeline/decoder.hh"

#include <algorithm>

#include "consensus/two_sided.hh"
#include "dna/codec.hh"
#include "layout/data_map.hh"
#include "pipeline/encoder.hh"
#include "util/bitio.hh"
#include "util/parallel.hh"

namespace dnastore {

size_t
DecodeStats::totalCorrected() const
{
    size_t total = 0;
    for (size_t e : errorsPerCodeword)
        total += e;
    return total;
}

UnitDecoder::UnitDecoder(const StorageConfig &cfg, LayoutScheme scheme)
    : cfg_(cfg), scheme_(scheme), gf_(cfg.symbolBits),
      rs_(gf_, cfg.paritySymbols), map_(makeCodewordMap(cfg, scheme)),
      primers_(makePrimerPair(cfg.primerKey, cfg.primerLen))
{
    cfg_.validate();
}

DecodedUnit
UnitDecoder::decode(const std::vector<std::vector<Strand>> &clusters,
                    const std::vector<size_t> &forced_erasures) const
{
    // Adapt to the view-batch hot path without copying a single base:
    // views alias the caller's strands.
    ReadBatch batch;
    batch.offsets.reserve(clusters.size() + 1);
    size_t total = 0;
    for (const auto &cluster : clusters)
        total += cluster.size();
    batch.views.reserve(total);
    batch.offsets.push_back(0);
    for (const auto &cluster : clusters) {
        for (const Strand &read : cluster)
            batch.views.push_back(read);
        batch.offsets.push_back(batch.views.size());
    }
    return decode(batch, forced_erasures);
}

DecodedUnit
UnitDecoder::decode(const ReadBatch &batch,
                    const std::vector<size_t> &forced_erasures,
                    std::vector<ClusterHealthEntry> *probe) const
{
    const size_t n_cols = cfg_.codewordLen();
    const size_t strand_len = cfg_.strandLen();

    DecodedUnit out;
    out.stats.errorsPerCodeword.assign(map_->codewords(), 0);
    out.stats.rsErrors.assign(map_->codewords(), 0);
    out.stats.rsErasures.assign(map_->codewords(), 0);
    if (probe != nullptr) {
        probe->clear();
        probe->resize(std::min(batch.clusters(), size_t(n_cols)));
    }

    std::vector<bool> forced(n_cols, false);
    for (size_t col : forced_erasures)
        if (col < n_cols)
            forced[col] = true;

    // Consensus per cluster, index parse, column placement. Ordering
    // information is outside ECC protection (section 2.2), so a
    // misdecoded index loses the molecule: the strand is dropped and
    // the unclaimed column becomes an erasure.
    //
    // Consensus dominates decode time and every cluster is
    // independent, so this stage is dispatched to the shared
    // work-stealing pool as stealable per-cluster batches (a slow
    // cluster no longer idles the other workers); the claim/fault
    // bookkeeping below merges the per-cluster outcomes serially in
    // cluster order, which keeps the result bit-identical to a serial
    // pass (first claim of a column wins either way).
    // All per-cluster working memory is thread-local scratch, so the
    // steady-state loop does no heap allocation per read.
    struct ClusterOutcome
    {
        enum Kind { Empty, Fault, Usable } kind = Empty;
        uint64_t idx = 0;
        std::vector<uint32_t> symbols;
    };
    const size_t n_clusters = std::min(batch.clusters(), size_t(n_cols));
    std::vector<ClusterOutcome> outcomes(n_clusters);
    parallelFor(n_clusters, cfg_.numThreads, [&](size_t cl) {
        const StrandView *reads = batch.cluster(cl);
        const size_t n_reads = batch.clusterSize(cl);
        ClusterOutcome &o = outcomes[cl];
        if (n_reads == 0)
            return;

        static thread_local TwoSidedScratch ts_scratch;
        static thread_local Strand consensus;
        reconstructTwoSidedInto(reads, n_reads, strand_len, ts_scratch,
                                consensus);
        if (probe != nullptr) {
            // Telemetry only: per-read agreement with the consensus.
            // Slot-per-cluster writes, so thread count cannot leak
            // into the probe.
            ClusterHealthEntry &p = (*probe)[cl];
            p.reads = n_reads;
            double total = 0.0;
            for (size_t r = 0; r < n_reads; ++r) {
                const size_t len =
                    std::max(reads[r].size(), consensus.size());
                const size_t dist = editDistanceRange(
                    reads[r].data(), reads[r].size(),
                    consensus.data(), consensus.size());
                total += len == 0
                    ? 1.0
                    : 1.0 - double(dist) / double(len);
            }
            p.agreement = n_reads == 0 ? 0.0 : total / double(n_reads);
        }
        // Frame: [forward primer | index | payload | backward primer].
        size_t idx_off = cfg_.primerLen;
        uint64_t idx = decodeUint(consensus, idx_off,
                                  int(cfg_.indexBits()));
        if (idx >= n_cols) {
            o.kind = ClusterOutcome::Fault;
            return;
        }
        if (probe != nullptr) {
            (*probe)[cl].indexOk = true;
            (*probe)[cl].column = idx;
        }
        // Unpack payload bases into row symbols directly: the bases
        // form one MSB-first bitstream consumed symbolBits at a time.
        o.kind = ClusterOutcome::Usable;
        o.idx = idx;
        o.symbols.resize(cfg_.rows);
        const size_t payload_off = idx_off + cfg_.indexBases();
        const unsigned sym_bits = cfg_.symbolBits;
        const uint32_t sym_mask = (uint32_t(1) << sym_bits) - 1;
        uint64_t acc = 0;
        unsigned bits = 0;
        size_t row = 0;
        for (size_t b = 0;
             b < cfg_.payloadBases() && row < cfg_.rows; ++b) {
            size_t p = payload_off + b;
            unsigned two =
                p < consensus.size() ? bitsFromBase(consensus[p]) : 0u;
            acc = (acc << 2) | two;
            bits += 2;
            if (bits >= sym_bits) {
                o.symbols[row++] =
                    uint32_t(acc >> (bits - sym_bits)) & sym_mask;
                bits -= sym_bits;
            }
        }
    });

    SymbolMatrix received(cfg_.rows, n_cols);
    std::vector<bool> claimed(n_cols, false);
    for (size_t cl = 0; cl < n_clusters; ++cl) {
        const ClusterOutcome &o = outcomes[cl];
        if (o.kind == ClusterOutcome::Empty)
            continue;
        if (o.kind == ClusterOutcome::Fault || claimed[o.idx]) {
            ++out.stats.indexFaults;
            continue;
        }
        if (forced[o.idx])
            continue; // column artificially erased
        claimed[o.idx] = true;
        if (probe != nullptr)
            (*probe)[cl].claimed = true;
        for (size_t row = 0; row < cfg_.rows; ++row)
            received.at(row, size_t(o.idx)) = o.symbols[row];
    }

    std::vector<size_t> erased_cols;
    for (size_t col = 0; col < n_cols; ++col) {
        if (!claimed[col])
            erased_cols.push_back(col);
    }
    out.stats.erasedColumns = erased_cols.size();

    // Reed-Solomon decode each codeword along the layout. A codeword's
    // erasure positions are the symbol slots that fall in erased
    // columns; every layout puts symbol t in column t, so each erased
    // column costs every codeword the same one symbol, and the erased
    // columns are every codeword's erasure list.

    // Codewords occupy disjoint matrix cells (position() is a
    // bijection), so gather/decode/scatter parallelizes with no
    // shared writes; only the failure count is merged serially. The
    // gather buffer and RS working set are per-thread scratch reused
    // across codewords.
    std::vector<uint8_t> codeword_ok(map_->codewords(), 0);
    parallelFor(map_->codewords(), cfg_.numThreads, [&](size_t j) {
        static thread_local std::vector<uint32_t> codeword;
        static thread_local RsScratch rs_scratch;
        map_->gatherInto(received, j, codeword);
        RsDecodeResult result = rs_.decode(codeword, erased_cols,
                                           rs_scratch);
        if (result.success) {
            map_->scatter(received, j, codeword);
            out.stats.errorsPerCodeword[j] =
                result.errorsCorrected + result.erasuresCorrected;
            out.stats.rsErrors[j] = result.errorsCorrected;
            out.stats.rsErasures[j] = result.erasuresCorrected;
            codeword_ok[j] = 1;
        }
    });
    bool all_ok = true;
    for (size_t j = 0; j < map_->codewords(); ++j) {
        if (!codeword_ok[j]) {
            ++out.stats.failedCodewords;
            all_ok = false;
        }
    }
    out.stats.codewordOk = codeword_ok;
    out.exact = all_ok;

    // Unpack the data region back into the serialized stream and split
    // into files.
    const bool priority = scheme_ == LayoutScheme::DnaMapper;
    std::vector<uint32_t> symbols =
        extractData(received, cfg_.dataCols(),
                    priority ? DataPlacement::Priority
                             : DataPlacement::Baseline);
    BitWriter w;
    for (uint32_t s : symbols)
        w.writeBits(s, int(cfg_.symbolBits));
    out.rawStream = w.take();

    bool ok = false;
    out.bundle = priority
        ? FileBundle::deserializePriority(out.rawStream, &ok)
        : FileBundle::deserialize(out.rawStream, &ok);
    out.bundleOk = ok;
    return out;
}

} // namespace dnastore
