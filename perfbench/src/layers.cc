#include <cstring>

#include "workloads.hh"

namespace perfbench {

namespace {

/** How a per-layer metric is derived from the trace. */
enum class Source
{
    SpanPerOp,   //!< Span self time summed per op.
    SpanPerCall, //!< Span self time per call of that span.
    CountPerOp,  //!< Counter summed per op.
    Ratio,       //!< Counter key / counter den.
    Direct,      //!< Computed by the workload itself.
    Unattributed //!< Op-root self time over op-root time.
};

struct LayerMetric
{
    const char *name;
    const char *unit;
    Source source;
    const char *key; //!< Span or counter name.
    const char *den; //!< Ratio denominator counter.
};

/**
 * The per-layer metrics, in BENCHMARK.json order. Time metrics name
 * their unit in the suffix (_ms, _us); the span they read is the name
 * without it.
 */
const LayerMetric kLayerMetrics[] = {
    { "channel.synthesize_ms", "ms", Source::SpanPerOp,
      "channel.synthesize", nullptr },
    { "channel.reads", "count", Source::CountPerOp, "channel.reads",
      nullptr },
    { "channel.bases", "count", Source::CountPerOp, "channel.bases",
      nullptr },
    { "pipeline.serialize_ms", "ms", Source::SpanPerOp,
      "pipeline.serialize", nullptr },
    { "layout.place_ms", "ms", Source::SpanPerOp, "layout.place", nullptr },
    { "layout.gather_scatter_write_ms", "ms", Source::SpanPerOp,
      "layout.gather_scatter_write", nullptr },
    { "ecc.rs_encode_ms", "ms", Source::SpanPerOp, "ecc.rs_encode",
      nullptr },
    { "ecc.codewords", "count", Source::CountPerOp, "ecc.codewords",
      nullptr },
    { "dna.strand_emit_ms", "ms", Source::SpanPerOp, "dna.strand_emit",
      nullptr },
    { "channel.fill_batch_ms", "ms", Source::SpanPerOp,
      "channel.fill_batch", nullptr },
    { "pipeline.flatten_ms", "ms", Source::SpanPerOp, "pipeline.flatten",
      nullptr },
    { "cluster.cluster_reads_ms", "ms", Source::SpanPerOp,
      "cluster.cluster_reads", nullptr },
    { "cluster.score_ms", "ms", Source::SpanPerOp, "cluster.score",
      nullptr },
    { "cluster.clusters_found", "count", Source::CountPerOp,
      "cluster.clusters_found", nullptr },
    { "cluster.precision", "ratio", Source::CountPerOp,
      "cluster.precision", nullptr },
    { "cluster.recall", "ratio", Source::CountPerOp, "cluster.recall",
      nullptr },
    { "consensus.two_sided_ms", "ms", Source::SpanPerOp,
      "consensus.two_sided", nullptr },
    { "consensus.clusters", "count", Source::CountPerOp,
      "consensus.clusters", nullptr },
    { "consensus.index_ok_ratio", "ratio", Source::Ratio,
      "consensus.index_ok", "consensus.clusters" },
    { "dna.index_decode_ms", "ms", Source::SpanPerOp, "dna.index_decode",
      nullptr },
    { "pipeline.assemble_ms", "ms", Source::SpanPerOp,
      "pipeline.assemble", nullptr },
    { "layout.gather_scatter_read_ms", "ms", Source::SpanPerOp,
      "layout.gather_scatter_read", nullptr },
    { "layout.extract_ms", "ms", Source::SpanPerOp, "layout.extract",
      nullptr },
    { "ecc.rs_decode_ms", "ms", Source::SpanPerOp, "ecc.rs_decode",
      nullptr },
    { "ecc.errors_corrected", "count", Source::CountPerOp,
      "ecc.errors_corrected", nullptr },
    { "ecc.erasures_corrected", "count", Source::CountPerOp,
      "ecc.erasures_corrected", nullptr },
    { "ecc.failed_codewords", "count", Source::CountPerOp,
      "ecc.failed_codewords", nullptr },
    { "ecc.clean_codeword_ratio", "ratio", Source::Ratio,
      "ecc.clean_codewords", "ecc.decoded_codewords" },
    { "pipeline.deserialize_ms", "ms", Source::SpanPerOp,
      "pipeline.deserialize", nullptr },
    { "api.write.self_ms", "ms", Source::Direct, nullptr, nullptr },
    { "api.read.self_ms", "ms", Source::Direct, nullptr, nullptr },
    { "channel.generate_ms", "ms", Source::SpanPerOp, "channel.generate",
      nullptr },
    { "lab.trial_ms", "ms", Source::Direct, nullptr, nullptr },
    { "util.pool.efficiency", "ratio", Source::Direct, nullptr, nullptr },
    { "daemon.protocol.codec_us", "us", Source::SpanPerOp,
      "daemon.protocol.codec", nullptr },
    { "daemon.tenant.get_hit_us", "us", Source::SpanPerCall,
      "daemon.tenant.get_hit", nullptr },
    { "daemon.tenant.put_us", "us", Source::SpanPerCall,
      "daemon.tenant.put", nullptr },
    { "daemon.tenant.rebuild_ms", "ms", Source::SpanPerCall,
      "daemon.tenant.rebuild", nullptr },
    { "daemon.tenant.rebuilds", "count", Source::CountPerOp,
      "daemon.tenant.rebuilds", nullptr },
    { "daemon.tenant.puts_per_rebuild", "ratio", Source::Ratio,
      "daemon.tenant.puts", "daemon.tenant.rebuilds" },
    { "daemon.transport.self_us", "us", Source::Direct, nullptr, nullptr },
    { "trace.unattributed_share", "ratio", Source::Unattributed, nullptr,
      nullptr },
    { "trace.overhead_share", "ratio", Source::Direct, nullptr, nullptr },
};

double
lookup(const std::map<std::string, double> &m, const std::string &key)
{
    auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
}

} // namespace

uint64_t
mixSeed(uint64_t seed, uint64_t stream)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

void
emitLayerMetrics(Report &report, const Tracer &tracer, double ops,
                 const std::map<std::string, double> &direct)
{
    const TraceSummary sum = summarize(tracer);
    const std::map<std::string, double> &counters = tracer.counters();
    const double per_op = ops > 0.0 ? 1.0 / ops : 0.0;

    double root_ms = 0.0, unattributed_ms = 0.0;
    for (const auto &entry : sum.opMs)
        root_ms += entry.second;
    for (const auto &entry : sum.unattributedMs)
        unattributed_ms += entry.second;

    for (const LayerMetric &m : kLayerMetrics) {
        // Time metrics read their span in ms; *_us names scale to us.
        const double scale = std::strcmp(m.unit, "us") == 0 ? 1000.0 : 1.0;
        double value = 0.0;
        switch (m.source) {
          case Source::SpanPerOp:
            value = lookup(sum.layerTotalMs, m.key) * per_op * scale;
            break;
          case Source::SpanPerCall: {
            auto calls = sum.layerCalls.find(m.key);
            if (calls != sum.layerCalls.end() && calls->second > 0)
                value = lookup(sum.layerTotalMs, m.key) /
                    double(calls->second) * scale;
            break;
          }
          case Source::CountPerOp:
            value = lookup(counters, m.key) * per_op;
            break;
          case Source::Ratio: {
            const double den = lookup(counters, m.den);
            value = den > 0.0 ? lookup(counters, m.key) / den : 0.0;
            break;
          }
          case Source::Direct:
            value = lookup(direct, m.name);
            break;
          case Source::Unattributed:
            value = root_ms > 0.0 ? unattributed_ms / root_ms : 0.0;
            break;
        }
        report.metric(m.name, value, m.unit);
    }

    for (const auto &entry : sum.layerMs) {
        const std::string &kind = entry.first.first;
        const double kind_ms = lookup(sum.opMs, kind);
        const size_t n = sum.opCount.at(kind);
        report.attribution.push_back(
            { kind, entry.first.second,
              kind_ms > 0.0 ? entry.second / kind_ms : 0.0,
              entry.second / double(n) });
    }
    for (const auto &entry : sum.unattributedMs) {
        const double kind_ms = lookup(sum.opMs, entry.first);
        report.attribution.push_back(
            { entry.first, "trace.unattributed",
              kind_ms > 0.0 ? entry.second / kind_ms : 0.0,
              entry.second / double(sum.opCount.at(entry.first)) });
    }
}

} // namespace perfbench
