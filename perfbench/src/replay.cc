#include "replay.hh"

#include <algorithm>

#include "consensus/two_sided.hh"
#include "dna/codec.hh"
#include "layout/data_map.hh"
#include "util/bitio.hh"

namespace perfbench {

using namespace dnastore;

UnitCodec::UnitCodec(const StorageConfig &cfg_in, LayoutScheme scheme_in)
    : cfg(cfg_in), scheme(scheme_in),
      priority(scheme_in == LayoutScheme::DnaMapper), gf(cfg_in.symbolBits),
      rs(gf, cfg_in.paritySymbols), map(makeCodewordMap(cfg_in, scheme_in)),
      encoder(cfg_in, scheme_in),
      primers(makePrimerPair(cfg_in.primerKey, cfg_in.primerLen))
{}

std::vector<Strand>
replayEncode(const UnitCodec &codec, const FileBundle &bundle,
             Tracer &tracer)
{
    const StorageConfig &cfg = codec.cfg;
    std::vector<uint32_t> symbols;
    {
        Scope s(tracer, "pipeline.serialize");
        symbols = codec.encoder.packSymbols(
            codec.priority ? bundle.serializePriority() : bundle.serialize());
    }

    SymbolMatrix matrix(cfg.rows, cfg.codewordLen());
    {
        Scope s(tracer, "layout.place");
        placeData(matrix, symbols, cfg.dataCols(),
                  codec.priority ? DataPlacement::Priority
                                 : DataPlacement::Baseline);
    }

    // The first dataCols() slots of every codeword are data (the
    // CodewordMap contract), so gather + truncate is the encoder's
    // per-slot position() walk, and scattering the systematic
    // codeword rewrites those data slots with themselves.
    std::vector<uint32_t> codeword;
    std::vector<uint32_t> data;
    for (size_t j = 0; j < codec.map->codewords(); ++j) {
        {
            Scope s(tracer, "layout.gather_scatter_write");
            codec.map->gatherInto(matrix, j, codeword);
            data.assign(codeword.begin(),
                        codeword.begin() + std::ptrdiff_t(cfg.dataCols()));
        }
        std::vector<uint32_t> full;
        {
            Scope s(tracer, "ecc.rs_encode");
            full = codec.rs.encode(data);
        }
        Scope s(tracer, "layout.gather_scatter_write");
        codec.map->scatter(matrix, j, full);
    }
    tracer.count("ecc.codewords", double(codec.map->codewords()));

    std::vector<Strand> strands;
    Scope s(tracer, "dna.strand_emit");
    strands.reserve(cfg.codewordLen());
    for (size_t col = 0; col < cfg.codewordLen(); ++col) {
        BitWriter w;
        for (size_t row = 0; row < cfg.rows; ++row)
            w.writeBits(matrix.at(row, col), int(cfg.symbolBits));
        Strand payload;
        payload.reserve(cfg.indexBases() + cfg.payloadBases());
        appendUint(payload, col, int(cfg.indexBits()));
        const std::vector<uint8_t> bytes = w.take();
        BitReader r(bytes);
        for (size_t b = 0; b < cfg.payloadBases(); ++b)
            payload.push_back(baseFromBits(r.readBits(2)));
        strands.push_back(attachPrimers(codec.primers, payload));
    }
    return strands;
}

std::unique_ptr<ReadPool>
replaySynthesize(const UnitCodec &codec, const std::vector<Strand> &strands,
                 const ErrorModel &model, size_t coverage, uint64_t seed,
                 Tracer &tracer)
{
    const IdsChannel channel(model);
    Scope s(tracer, "channel.synthesize");
    auto pool = std::make_unique<ReadPool>(
        strands, channel, coverage, seed, codec.cfg.numThreads,
        codec.cfg.packedReadPools ? ReadStorage::Packed : ReadStorage::Flat);
    tracer.count("channel.reads", double(pool->totalReads()));
    return pool;
}

DecodedUnit
replayDecode(const UnitCodec &codec, const ReadBatch &batch, Tracer &tracer)
{
    const StorageConfig &cfg = codec.cfg;
    const size_t n_cols = cfg.codewordLen();
    const size_t strand_len = cfg.strandLen();
    const size_t n_codewords = codec.map->codewords();

    DecodedUnit out;
    out.stats.errorsPerCodeword.assign(n_codewords, 0);
    out.stats.rsErrors.assign(n_codewords, 0);
    out.stats.rsErasures.assign(n_codewords, 0);

    // Consensus per non-empty cluster; clusters past the column count
    // are ignored, as in the decoder.
    const size_t n_clusters = std::min(batch.clusters(), n_cols);
    std::vector<Strand> consensus(n_clusters);
    TwoSidedScratch scratch;
    size_t live = 0;
    for (size_t cl = 0; cl < n_clusters; ++cl) {
        const size_t n_reads = batch.clusterSize(cl);
        if (n_reads == 0)
            continue;
        ++live;
        Scope s(tracer, "consensus.two_sided");
        reconstructTwoSidedInto(batch.cluster(cl), n_reads, strand_len,
                                scratch, consensus[cl]);
    }

    enum Kind : uint8_t { Empty, Fault, Usable };
    std::vector<Kind> kind(n_clusters, Empty);
    std::vector<uint64_t> index(n_clusters, 0);
    size_t index_ok = 0;
    {
        Scope s(tracer, "dna.index_decode");
        for (size_t cl = 0; cl < n_clusters; ++cl) {
            if (batch.clusterSize(cl) == 0)
                continue;
            if (consensus[cl].size() != strand_len) {
                kind[cl] = Fault;
                continue;
            }
            index[cl] = decodeUint(consensus[cl], cfg.primerLen,
                                   int(cfg.indexBits()));
            kind[cl] = index[cl] < n_cols ? Usable : Fault;
            index_ok += kind[cl] == Usable ? 1 : 0;
        }
    }
    tracer.count("consensus.clusters", double(live));
    tracer.count("consensus.index_ok", double(index_ok));

    // Column claims (first claim wins), matrix fill, erasure lists.
    SymbolMatrix received(cfg.rows, n_cols);
    std::vector<std::vector<size_t>> erasures(n_codewords);
    {
        Scope s(tracer, "pipeline.assemble");
        const size_t payload_off = cfg.primerLen + cfg.indexBases();
        const unsigned sym_bits = cfg.symbolBits;
        const uint32_t sym_mask = (uint32_t(1) << sym_bits) - 1;
        std::vector<bool> claimed(n_cols, false);
        for (size_t cl = 0; cl < n_clusters; ++cl) {
            if (kind[cl] == Empty)
                continue;
            if (kind[cl] == Fault || claimed[index[cl]]) {
                ++out.stats.indexFaults;
                continue;
            }
            const size_t col = size_t(index[cl]);
            claimed[col] = true;
            const Strand &c = consensus[cl];
            uint64_t acc = 0;
            unsigned bits = 0;
            size_t row = 0;
            for (size_t b = 0; b < cfg.payloadBases() && row < cfg.rows;
                 ++b) {
                const size_t p = payload_off + b;
                const unsigned two = p < c.size() ? bitsFromBase(c[p]) : 0u;
                acc = (acc << 2) | two;
                bits += 2;
                if (bits >= sym_bits) {
                    received.at(row++, col) =
                        uint32_t(acc >> (bits - sym_bits)) & sym_mask;
                    bits -= sym_bits;
                }
            }
        }
        for (size_t col = 0; col < n_cols; ++col)
            out.stats.erasedColumns += claimed[col] ? 0 : 1;
        for (size_t j = 0; j < n_codewords; ++j)
            for (size_t t = 0; t < codec.map->length(); ++t)
                if (!claimed[codec.map->position(j, t).col])
                    erasures[j].push_back(t);
    }

    std::vector<uint8_t> codeword_ok(n_codewords, 0);
    std::vector<uint32_t> codeword;
    RsScratch rs_scratch;
    for (size_t j = 0; j < n_codewords; ++j) {
        {
            Scope s(tracer, "layout.gather_scatter_read");
            codec.map->gatherInto(received, j, codeword);
        }
        RsDecodeResult result;
        {
            Scope s(tracer, "ecc.rs_decode");
            result = codec.rs.decode(codeword, erasures[j], rs_scratch);
        }
        if (!result.success)
            continue;
        {
            Scope s(tracer, "layout.gather_scatter_read");
            codec.map->scatter(received, j, codeword);
        }
        out.stats.errorsPerCodeword[j] =
            result.errorsCorrected + result.erasuresCorrected;
        out.stats.rsErrors[j] = result.errorsCorrected;
        out.stats.rsErasures[j] = result.erasuresCorrected;
        codeword_ok[j] = 1;
    }
    for (uint8_t ok : codeword_ok)
        out.stats.failedCodewords += ok ? 0 : 1;
    out.stats.codewordOk = codeword_ok;
    out.exact = out.stats.failedCodewords == 0;

    std::vector<uint32_t> symbols;
    {
        Scope s(tracer, "layout.extract");
        symbols = extractData(received, cfg.dataCols(),
                              codec.priority ? DataPlacement::Priority
                                             : DataPlacement::Baseline);
    }
    Scope s(tracer, "pipeline.deserialize");
    BitWriter w;
    for (uint32_t sym : symbols)
        w.writeBits(sym, int(cfg.symbolBits));
    out.rawStream = w.take();
    bool ok = false;
    out.bundle = codec.priority
        ? FileBundle::deserializePriority(out.rawStream, &ok)
        : FileBundle::deserialize(out.rawStream, &ok);
    out.bundleOk = ok;
    return out;
}

DecodedUnit
replayClusteredDecode(const UnitCodec &codec, const ReadBatch &pooled,
                      const ClusterParams &params, Tracer &tracer,
                      ClusterOutcome *outcome)
{
    // Round-robin soup across molecules: the order a sequencing run
    // delivers reads in, not pre-grouped.
    std::vector<Strand> flat;
    std::vector<size_t> truth;
    {
        Scope s(tracer, "pipeline.flatten");
        size_t max_reads = 0;
        for (size_t cl = 0; cl < pooled.clusters(); ++cl)
            max_reads = std::max(max_reads, pooled.clusterSize(cl));
        flat.reserve(pooled.views.size());
        truth.reserve(pooled.views.size());
        for (size_t j = 0; j < max_reads; ++j) {
            for (size_t cl = 0; cl < pooled.clusters(); ++cl) {
                if (j < pooled.clusterSize(cl)) {
                    flat.push_back(pooled.cluster(cl)[j].toStrand());
                    truth.push_back(cl);
                }
            }
        }
    }

    Clustering clustering;
    {
        Scope s(tracer, "cluster.cluster_reads");
        clustering = clusterReads(flat, params);
    }
    {
        Scope s(tracer, "cluster.score");
        outcome->quality = scoreClustering(clustering, truth);
    }
    outcome->clustersFound = clustering.count();
    tracer.count("cluster.clusters_found", double(clustering.count()));
    tracer.count("cluster.precision", outcome->quality.precision);
    tracer.count("cluster.recall", outcome->quality.recall);

    // Regroup by cluster id as views over the soup (the decoder's
    // vector-of-clusters adapter, without its copies).
    ReadBatch grouped;
    {
        Scope s(tracer, "pipeline.flatten");
        grouped.offsets.reserve(clustering.count() + 1);
        grouped.views.reserve(flat.size());
        grouped.offsets.push_back(0);
        for (size_t c = 0; c < clustering.count(); ++c) {
            for (size_t r : clustering.members[c])
                grouped.views.push_back(flat[r]);
            grouped.offsets.push_back(grouped.views.size());
        }
    }
    return replayDecode(codec, grouped, tracer);
}

std::string
compareDecoded(const DecodedUnit &replay, const DecodedUnit &library)
{
    const DecodeStats &a = replay.stats;
    const DecodeStats &b = library.stats;
    if (a.errorsPerCodeword != b.errorsPerCodeword)
        return "errorsPerCodeword differs";
    if (a.rsErrors != b.rsErrors)
        return "rsErrors differs";
    if (a.rsErasures != b.rsErasures)
        return "rsErasures differs";
    if (a.erasedColumns != b.erasedColumns)
        return "erasedColumns " + std::to_string(a.erasedColumns) +
            " vs " + std::to_string(b.erasedColumns);
    if (a.failedCodewords != b.failedCodewords)
        return "failedCodewords " + std::to_string(a.failedCodewords) +
            " vs " + std::to_string(b.failedCodewords);
    if (a.indexFaults != b.indexFaults)
        return "indexFaults differs";
    if (replay.rawStream != library.rawStream)
        return "raw stream differs";
    if (replay.bundleOk != library.bundleOk)
        return "bundle parse verdict differs";
    return "";
}

std::string
compareStrands(const std::vector<Strand> &replay,
               const std::vector<Strand> &library)
{
    if (replay.size() != library.size())
        return "strand count " + std::to_string(replay.size()) + " vs " +
            std::to_string(library.size());
    for (size_t i = 0; i < replay.size(); ++i)
        if (replay[i] != library[i])
            return "strand " + std::to_string(i) + " differs";
    return "";
}

void
countDecode(const DecodedUnit &decoded, Tracer &tracer)
{
    const DecodeStats &st = decoded.stats;
    size_t errors = 0, erasures = 0, clean = 0;
    for (size_t j = 0; j < st.rsErrors.size(); ++j) {
        errors += st.rsErrors[j];
        erasures += st.rsErasures[j];
        const bool ok = j < st.codewordOk.size() && st.codewordOk[j];
        clean += ok && st.rsErrors[j] == 0 && st.rsErasures[j] == 0 ? 1 : 0;
    }
    tracer.count("ecc.errors_corrected", double(errors));
    tracer.count("ecc.erasures_corrected", double(erasures));
    tracer.count("ecc.failed_codewords", double(st.failedCodewords));
    tracer.count("ecc.clean_codewords", double(clean));
    tracer.count("ecc.decoded_codewords", double(st.rsErrors.size()));
}

} // namespace perfbench
