/**
 * @file
 * The four workloads and the per-layer metric table they share.
 *
 * Every workload runs closed-loop from this one process with at most
 * two busy threads or connections. Untraced runs report end-to-end
 * metrics only; traced runs (--trace 1) replay the same seeded inputs
 * through the layers and report per-layer metrics only.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <map>
#include <string>

#include "common.hh"
#include "trace.hh"

namespace perfbench {

/** unit-roundtrip (@p clustered false) and unit-clustered. */
Report runUnit(const RunOptions &opt, bool clustered);

/** daemon-rw: an in-process dnastored driven by two connections. */
Report runDaemon(const RunOptions &opt);

/** lab-sweep: SweepRunner::run on nanopore-hostile. */
Report runLab(const RunOptions &opt);

/**
 * Append every per-layer metric to @p report. Span self times and
 * counters come from @p tracer, averaged over @p ops replayed ops (the
 * workload's op: a unit round trip, a daemon request, a lab trial);
 * @p direct holds the metrics a workload computes itself (api.*,
 * lab.trial_ms, util.pool.efficiency, daemon.transport.self_us,
 * trace.overhead_share). A layer the workload does not run reports 0.
 * Also fills the attribution table from the op-root spans.
 */
void emitLayerMetrics(Report &report, const Tracer &tracer, double ops,
                      const std::map<std::string, double> &direct);

/** Stable 64-bit mix of a seed and a stream index (splitmix64). */
uint64_t mixSeed(uint64_t seed, uint64_t stream);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
