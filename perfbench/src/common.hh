/**
 * @file
 * Shared pieces of the perfbench binary: run options, the clock,
 * sample statistics, and the report every workload fills in.
 *
 * A report is printed as one JSON line at the end of a run. It holds
 * the host block, every metric of the workload (name, value, unit,
 * sample count), each failed op with its reason, and — for traced runs
 * — the per-layer numbers and the attribution table.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Command-line options of one run. */
struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;

    /** Smallest size: one op, small inputs (the smoke test's mode). */
    bool smoke = false;

    /** Layout of the unit-* workloads (the smoke test varies it). */
    std::string layout = "gini";

    /** Directory for run-local files (daemon roots, span dumps). */
    std::string scratch = ".";
};

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double
msBetween(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/** A set of timing samples. */
class Samples
{
  public:
    void add(double v) { values_.push_back(v); }
    size_t size() const { return values_.size(); }
    bool empty() const { return values_.empty(); }
    const std::vector<double> &values() const { return values_; }
    double sum() const;

    /** Linear-interpolated quantile, q in [0, 1]. */
    double quantile(double q) const;

    double median() const { return quantile(0.5); }

    /**
     * True when at least ten samples lie beyond quantile @p q — the
     * rule for reporting a tail percentile at all.
     */
    bool tailReportable(double q) const;

  private:
    std::vector<double> values_;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    size_t samples = 0; //!< 0 when the value is not a sample statistic.
};

/** One failed op: which op, and why. */
struct Failure
{
    size_t op = 0;
    std::string reason;
};

/** One row of the attribution table: a layer's share of an op kind. */
struct Share
{
    std::string opKind;
    std::string layer;
    double share = 0.0;
    double msPerOp = 0.0;
};

/** Everything one run reports. */
struct Report
{
    std::string workload;
    uint64_t seed = 0;
    bool traced = false;
    size_t attempted = 0;
    std::vector<Failure> failures;
    std::vector<Metric> metrics;
    std::vector<Share> attribution;

    /** Free-form notes (e.g. omitted tail percentiles and why). */
    std::vector<std::string> notes;

    /** Record a failure of op @p op. */
    void fail(size_t op, const std::string &reason);

    void metric(const std::string &name, double value,
                const std::string &unit, size_t samples = 0);

    /**
     * Record @p name_p50 and, when the samples leave ten beyond it,
     * the tail percentile @p tail_q as @p name_tail.
     */
    void latency(const std::string &name_p50, const std::string &name_tail,
                 double tail_q, const Samples &samples,
                 const std::string &unit);
};

/** Peak resident set size of this process, in MiB. */
double peakRssMiB();

/**
 * How fast the host is right now: the median wall ms of the benchmark's
 * own fixed reference work (edit-distance tables, no library code), run
 * on @p threads threads at once, over a burst sized to about 5% of
 * @p covered_ms (at least one run). An op's time divided by it (taken
 * around the op, see HostReference) is the op's cost in reference
 * units: a neighbour that slows the host slows both alike, so the cost
 * moves with the program, not with the host.
 */
double referenceMs(size_t threads, double covered_ms);

/**
 * Brackets each op with reference bursts, one right before and one right
 * after, each sized to half of referenceMs's share, so a slowdown in the
 * middle of a long op is seen from both ends.
 */
class HostReference
{
  public:
    explicit HostReference(size_t threads) : threads_(threads) {}

    /** Sample right before an op expected to take @p expected_ms. */
    void before(double expected_ms)
    {
        before_ = referenceMs(threads_, expected_ms / 2);
    }

    /** Sample right after an op of @p op_ms; the mean of both bursts. */
    double after(double op_ms)
    {
        return 0.5 * (before_ + referenceMs(threads_, op_ms / 2));
    }

  private:
    size_t threads_;
    double before_ = 0.0;
};

/** JSON string literal for @p s (quotes included). */
std::string jsonString(const std::string &s);

/** A double rendered for JSON (non-finite values become null). */
std::string jsonNumber(double v);

/** The host block, as a JSON object. Measures effective parallelism. */
std::string hostJson();

/** Render @p report (plus the host block) as one JSON line. */
std::string reportJson(const Report &report, const std::string &host);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
