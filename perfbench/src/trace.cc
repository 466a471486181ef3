#include "trace.hh"

#include <cstdio>
#include <cstring>

namespace perfbench {

uint32_t
Tracer::open(const char *name)
{
    if (!enabled_)
        return kNoSpan;
    const uint32_t id = uint32_t(spans_.size());
    const uint32_t parent = stack_.empty() ? kNoSpan : stack_.back();
    spans_.push_back({ name, parent, op_, Clock::now(), {} });
    stack_.push_back(id);
    return id;
}

void
Tracer::close(uint32_t id)
{
    if (id == kNoSpan)
        return;
    spans_[id].end = Clock::now();
    stack_.pop_back();
}

void
Tracer::count(const std::string &name, double v)
{
    if (enabled_)
        counters_[name] += v;
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "op,id,parent,name,start_ns,end_ns\n");
    const Clock::time_point origin =
        spans_.empty() ? Clock::time_point() : spans_.front().start;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const auto ns = [&](Clock::time_point t) {
            return (long long)std::chrono::duration_cast<
                       std::chrono::nanoseconds>(t - origin)
                .count();
        };
        std::fprintf(f, "%llu,%zu,%lld,%s,%lld,%lld\n",
                     (unsigned long long)s.op, i,
                     s.parent == kNoSpan ? -1LL : (long long)s.parent,
                     s.name, ns(s.start), ns(s.end));
    }
    return std::fclose(f) == 0;
}

TraceSummary
summarize(const Tracer &tracer)
{
    const std::vector<Tracer::Span> &spans = tracer.spans();
    std::vector<double> childMs(spans.size(), 0.0);
    std::vector<uint32_t> root(spans.size(), 0);
    for (size_t i = 0; i < spans.size(); ++i) {
        const Tracer::Span &s = spans[i];
        const double ms = msBetween(s.start, s.end);
        if (s.parent == Tracer::kNoSpan) {
            root[i] = uint32_t(i);
        } else {
            childMs[s.parent] += ms;
            root[i] = root[s.parent]; // parents precede children
        }
    }

    TraceSummary out;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Tracer::Span &s = spans[i];
        const double self = msBetween(s.start, s.end) - childMs[i];
        const char *rootName = spans[root[i]].name;
        const std::string kind = std::strncmp(rootName, "op.", 3) == 0
            ? std::string(rootName + 3)
            : std::string(rootName);
        if (s.parent == Tracer::kNoSpan) {
            out.opMs[kind] += msBetween(s.start, s.end);
            out.opCount[kind] += 1;
            out.unattributedMs[kind] += self;
            continue;
        }
        out.layerMs[{ kind, s.name }] += self;
        out.layerTotalMs[s.name] += self;
        out.layerCalls[s.name] += 1;
    }
    return out;
}

} // namespace perfbench
