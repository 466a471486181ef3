/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * The traced run calls each layer's public functions from the
 * benchmark's own files and wraps every call (or batch of cheap calls)
 * in a span: name, start, end, parent span and op id. Spans stay in
 * memory until the run ends; then they are summarized into per-layer
 * self times (a span's duration minus its children's) and written out.
 * A disabled tracer reads no clock, so the same replay code also gives
 * the untraced time that the tracing overhead is measured against.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hh"

namespace perfbench {

class Tracer
{
  public:
    static constexpr uint32_t kNoSpan = UINT32_MAX;

    struct Span
    {
        const char *name; //!< Layer name, or "op.<kind>" for op roots.
        uint32_t parent;  //!< Index of the enclosing span, or kNoSpan.
        uint64_t op;
        Clock::time_point start;
        Clock::time_point end;
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Op id stamped on the spans opened from now on. */
    void setOp(uint64_t op) { op_ = op; }

    /** Open a span named @p name (a string literal); kNoSpan if off. */
    uint32_t open(const char *name);
    void close(uint32_t id);

    /** Add @p v to counter @p name (only while enabled). */
    void count(const std::string &name, double v);

    const std::vector<Span> &spans() const { return spans_; }
    const std::map<std::string, double> &counters() const
    {
        return counters_;
    }

    /** Write every span as CSV (op,id,parent,name,start_ns,end_ns). */
    bool write(const std::string &path) const;

  private:
    bool enabled_;
    uint64_t op_ = 0;
    std::vector<Span> spans_;
    std::vector<uint32_t> stack_;
    std::map<std::string, double> counters_;
};

/** RAII span. */
class Scope
{
  public:
    Scope(Tracer &tracer, const char *name)
        : tracer_(tracer), id_(tracer.open(name))
    {}
    ~Scope() { tracer_.close(id_); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &tracer_;
    uint32_t id_;
};

/** Span totals of one traced run. */
struct TraceSummary
{
    /** Op kind ("write", "read", ...) -> summed root durations, ms. */
    std::map<std::string, double> opMs;
    std::map<std::string, size_t> opCount;

    /** (op kind, layer) -> summed self time, ms. */
    std::map<std::pair<std::string, std::string>, double> layerMs;

    /** Layer -> summed self time over every op kind, ms. */
    std::map<std::string, double> layerTotalMs;
    std::map<std::string, size_t> layerCalls;

    /** Op kind -> summed root self time (time in no layer span), ms. */
    std::map<std::string, double> unattributedMs;
};

TraceSummary summarize(const Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
