#include "common.hh"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "channel/ids_channel.hh"
#include "consensus/two_sided.hh"
#include "util/rng.hh"
#include "util/simd.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {

double
Samples::sum() const
{
    double total = 0.0;
    for (double v : values_)
        total += v;
    return total;
}

double
Samples::quantile(double q) const
{
    if (values_.empty())
        return 0.0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    const double pos = q * double(sorted.size() - 1);
    const size_t lo = size_t(std::floor(pos));
    const size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - double(lo));
}

bool
Samples::tailReportable(double q) const
{
    const double beyond = double(values_.size()) * (1.0 - q);
    return beyond >= 10.0 - 1e-9;
}

void
Report::fail(size_t op, const std::string &reason)
{
    failures.push_back({ op, reason });
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit, size_t samples)
{
    metrics.push_back({ name, value, unit, samples });
}

void
Report::latency(const std::string &name_p50, const std::string &name_tail,
                double tail_q, const Samples &samples,
                const std::string &unit)
{
    if (samples.empty()) {
        notes.push_back(name_p50 + ": no samples");
        return;
    }
    metric(name_p50, samples.median(), unit, samples.size());
    if (samples.tailReportable(tail_q))
        metric(name_tail, samples.quantile(tail_q), unit, samples.size());
    else
        notes.push_back(name_tail + ": omitted, " +
                        std::to_string(samples.size()) +
                        " samples leave fewer than 10 beyond it");
}

double
peakRssMiB()
{
    struct rusage usage;
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    return double(usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

namespace {

uint64_t
referenceWork()
{
    // Levenshtein tables of two fixed 400-letter strings: compute and
    // branches in L1. Of the kernels tried (this, a pointer chase, random
    // and streaming loads past L2), it tracked the unit ops' slowdowns
    // best: dividing by it cut the drift of 20-op medians from 18% to 4%.
    const size_t len = 400;
    std::vector<uint8_t> a(len), b(len);
    dnastore::Rng rng(5);
    for (size_t i = 0; i < len; ++i) {
        a[i] = uint8_t(rng.nextBelow(4));
        b[i] = uint8_t(rng.nextBelow(4));
    }
    uint64_t sink = 0;
    std::vector<uint32_t> prev(len + 1), cur(len + 1);
    for (int rep = 0; rep < 4; ++rep) {
        for (size_t j = 0; j <= len; ++j)
            prev[j] = uint32_t(j);
        for (size_t i = 1; i <= len; ++i) {
            cur[0] = uint32_t(i);
            for (size_t j = 1; j <= len; ++j)
                cur[j] = std::min({ prev[j] + 1, cur[j - 1] + 1,
                                    prev[j - 1] + (a[i - 1] != b[j - 1]) });
            std::swap(prev, cur);
        }
        sink += prev[len];
    }
    return sink;
}

/** One timed run of the reference work on @p threads threads. */
double
referenceOnceMs(size_t threads)
{
    std::vector<uint64_t> sinks(threads, 0);
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> pool;
    for (size_t t = 1; t < threads; ++t)
        pool.emplace_back([&sinks, t] { sinks[t] = referenceWork(); });
    sinks[0] = referenceWork();
    for (std::thread &t : pool)
        t.join();
    const double ms = msBetween(t0, Clock::now());
    if (sinks[0] == 1)
        std::fprintf(stderr, "unreachable\n");
    return ms;
}

} // namespace

double
referenceMs(size_t threads, double covered_ms)
{
    constexpr double kShare = 0.05;   // of the covered time
    constexpr double kNominalMs = 1.0; // one run, roughly
    const size_t runs = std::max<size_t>(
        1, std::min<size_t>(32, size_t(kShare * covered_ms / kNominalMs)));
    Samples burst;
    for (size_t r = 0; r < runs; ++r)
        burst.add(referenceOnceMs(threads));
    return burst.median();
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", unsigned(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    return buf;
}

namespace {

/**
 * One fixed CPU-bound layer call: two-sided consensus over a fixed
 * 455-base cluster of 10 reads, repeated. Returns its wall seconds.
 */
double
consensusBurn(const std::vector<dnastore::Strand> &reads, size_t reps)
{
    const Clock::time_point t0 = Clock::now();
    size_t sink = 0;
    for (size_t i = 0; i < reps; ++i)
        sink += size_t(dnastore::reconstructTwoSided(reads, 455)[i % 455]);
    const double s = secondsSince(t0);
    if (sink == size_t(-1))
        std::fprintf(stderr, "unreachable\n");
    return s;
}

/**
 * Effective parallelism: the burn alone, then as @p n concurrent
 * copies. n copies finishing in the time of one is n-fold parallelism;
 * a CPU quota shows up as less.
 */
double
effectiveParallelism(size_t n)
{
    dnastore::IdsChannel channel(dnastore::ErrorModel::uniform(0.05));
    dnastore::Rng rng(7);
    dnastore::Strand original(455);
    for (auto &b : original)
        b = dnastore::baseFromBits(unsigned(rng.nextBelow(4)));
    const std::vector<dnastore::Strand> reads =
        channel.transmitCluster(original, 10, rng);
    const size_t reps = 1500;

    // Best of three each way: a neighbour's burst can only slow a
    // measurement down, never speed it up.
    consensusBurn(reads, reps / 10); // warm code and scratch
    double alone = 1e9, together = 1e9;
    for (int r = 0; r < 3; ++r)
        alone = std::min(alone, consensusBurn(reads, reps));
    for (int r = 0; r < 3; ++r) {
        const Clock::time_point t0 = Clock::now();
        std::vector<std::thread> threads;
        for (size_t t = 0; t < n; ++t)
            threads.emplace_back(
                [&reads, reps] { consensusBurn(reads, reps); });
        for (std::thread &t : threads)
            t.join();
        together = std::min(together, secondsSince(t0));
    }
    return double(n) * alone / together;
}

size_t
cpusAvailable()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return size_t(CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

} // namespace

std::string
hostJson()
{
    const size_t nproc = cpusAvailable();
    const double parallel = effectiveParallelism(nproc);
#if defined(__clang__)
    const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    const std::string compiler = std::string("gcc ") + __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
    std::string out = "{";
    out += "\"nproc\": " + std::to_string(nproc);
    out += ", \"simd_tier\": " +
        jsonString(dnastore::simd::levelName(
            dnastore::simd::activeLevel()));
    out += ", \"compiler\": " + jsonString(compiler);
    out += ", \"flags\": " + jsonString(PERFBENCH_CXX_FLAGS);
    out += ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE);
    out += ", \"effective_parallelism\": " + jsonNumber(parallel);
    // Below 1.5x the host cannot show thread scaling at all, so any
    // threaded number from it is marked n/a rather than explained.
    out += ", \"thread_scaling\": " +
        jsonString(parallel >= 1.5 ? "measurable" : "n/a");
    out += "}";
    return out;
}

std::string
reportJson(const Report &report, const std::string &host)
{
    std::string out = "{";
    out += "\"workload\": " + jsonString(report.workload);
    out += ", \"seed\": " + std::to_string(report.seed);
    out += ", \"trace\": " + std::string(report.traced ? "1" : "0");
    out += ", \"host\": " + host;
    out += ", \"correct\": " +
        std::string(report.failures.empty() ? "true" : "false");
    out += ", \"attempted\": " + std::to_string(report.attempted);
    out += ", \"failed\": " + std::to_string(report.failures.size());
    out += ", \"failures\": [";
    for (size_t i = 0; i < report.failures.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += "{\"op\": " + std::to_string(report.failures[i].op) +
            ", \"reason\": " + jsonString(report.failures[i].reason) + "}";
    }
    out += "], \"metrics\": {";
    for (size_t i = 0; i < report.metrics.size(); ++i) {
        const Metric &m = report.metrics[i];
        if (i > 0)
            out += ", ";
        out += jsonString(m.name) + ": {\"value\": " + jsonNumber(m.value) +
            ", \"unit\": " + jsonString(m.unit);
        if (m.samples > 0)
            out += ", \"samples\": " + std::to_string(m.samples);
        out += "}";
    }
    out += "}, \"attribution\": [";
    for (size_t i = 0; i < report.attribution.size(); ++i) {
        const Share &s = report.attribution[i];
        if (i > 0)
            out += ", ";
        out += "{\"op\": " + jsonString(s.opKind) +
            ", \"layer\": " + jsonString(s.layer) +
            ", \"share\": " + jsonNumber(s.share) +
            ", \"ms_per_op\": " + jsonNumber(s.msPerOp) + "}";
    }
    out += "], \"notes\": [";
    for (size_t i = 0; i < report.notes.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += jsonString(report.notes[i]);
    }
    out += "]}";
    return out;
}

} // namespace perfbench
