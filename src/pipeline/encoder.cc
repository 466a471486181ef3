#include "pipeline/encoder.hh"

#include <stdexcept>

#include "dna/codec.hh"
#include "layout/data_map.hh"
#include "util/bitio.hh"

namespace dnastore {

std::unique_ptr<CodewordMap>
makeCodewordMap(const StorageConfig &cfg, LayoutScheme scheme)
{
    switch (scheme) {
      case LayoutScheme::Baseline:
      case LayoutScheme::DnaMapper:
        // DnaMapper keeps row codewords; only the data placement and
        // the bit ordering differ (section 5.2.2).
        return std::make_unique<BaselineMap>(cfg.rows, cfg.codewordLen());
      case LayoutScheme::Gini:
        return std::make_unique<GiniMap>(cfg.rows, cfg.codewordLen());
    }
    throw std::logic_error("makeCodewordMap: bad scheme");
}

UnitEncoder::UnitEncoder(const StorageConfig &cfg, LayoutScheme scheme)
    : cfg_(cfg), scheme_(scheme), gf_(cfg.symbolBits),
      rs_(gf_, cfg.paritySymbols), map_(makeCodewordMap(cfg, scheme)),
      primers_(makePrimerPair(cfg.primerKey, cfg.primerLen))
{
    cfg_.validate();
}

std::vector<uint32_t>
UnitEncoder::packSymbols(const std::vector<uint8_t> &bytes) const
{
    const size_t n_symbols = cfg_.rows * cfg_.dataCols();
    if (bytes.size() * 8 > cfg_.capacityBits() + 7)
        throw std::invalid_argument("UnitEncoder: bundle too large");
    std::vector<uint32_t> symbols(n_symbols, 0);
    BitReader r(bytes);
    for (size_t s = 0; s < n_symbols; ++s) {
        if (r.bitPosition() >= r.bitLimit())
            break; // remaining symbols stay zero (padding)
        symbols[s] = r.readBits(int(cfg_.symbolBits));
    }
    return symbols;
}

EncodedUnit
UnitEncoder::encode(const FileBundle &bundle) const
{
    const bool priority = scheme_ == LayoutScheme::DnaMapper;
    std::vector<uint8_t> stream =
        priority ? bundle.serializePriority() : bundle.serialize();
    if (stream.size() * 8 > cfg_.capacityBits() + 7) {
        throw std::invalid_argument(
            "UnitEncoder: bundle exceeds unit capacity");
    }

    EncodedUnit unit;
    unit.payloadBits = stream.size() * 8;
    unit.matrix = SymbolMatrix(cfg_.rows, cfg_.codewordLen());

    // 1-2. Pack and place data symbols.
    placeData(unit.matrix, packSymbols(stream), cfg_.dataCols(),
              priority ? DataPlacement::Priority
                       : DataPlacement::Baseline);

    // 3. Reed-Solomon encode each codeword along the layout map; the
    // first M symbol slots of every codeword are data (columns < M by
    // the CodewordMap contract), the rest parity, so the gathered
    // codeword truncated to M is the data, and scattering the
    // systematic codeword rewrites those slots with themselves.
    std::vector<uint32_t> data;
    for (size_t j = 0; j < map_->codewords(); ++j) {
        map_->gatherInto(unit.matrix, j, data);
        data.resize(cfg_.dataCols());
        map_->scatter(unit.matrix, j, rs_.encode(data));
    }

    // 4. Emit strands: primer + index + payload bases + primer. The
    // payload is the column's symbols MSB-first, two bits per base; an
    // odd rows x symbolBits ends in a zero pad bit.
    unit.strands.resize(cfg_.codewordLen());
    for (size_t col = 0; col < cfg_.codewordLen(); ++col) {
        Strand &strand = unit.strands[col];
        strand.reserve(cfg_.strandLen());
        strand.assign(primers_.forward.begin(), primers_.forward.end());
        appendUint(strand, col, int(cfg_.indexBits()));
        uint64_t acc = 0;
        unsigned held = 0;
        for (size_t row = 0; row < cfg_.rows; ++row) {
            acc = acc << cfg_.symbolBits | unit.matrix.at(row, col);
            for (held += cfg_.symbolBits; held >= 2;) {
                held -= 2;
                strand.push_back(baseFromBits(unsigned(acc >> held)));
            }
        }
        if (held != 0)
            strand.push_back(baseFromBits(unsigned(acc << 1)));
        strand.insert(strand.end(), primers_.backward.begin(),
                      primers_.backward.end());
    }
    return unit;
}

} // namespace dnastore
