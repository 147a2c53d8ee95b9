#include "tracer.hh"

#include <chrono>

#include "util/logging.hh"
#include "util/serde.hh"

namespace perfbench
{

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::string
layerOf(const std::string &name)
{
    const std::string layer = name.substr(0, name.find('.'));
    return layer == "bench" ? "" : layer;
}

int
Tracer::open(const std::string &name, int64_t cell)
{
    const int parent = stack_.empty() ? -1 : stack_.back();
    const int64_t t = nowNs();
    const int id = add(name, t, t, parent, cell, 0);
    stack_.push_back(id);
    return id;
}

void
Tracer::close(int id)
{
    if (stack_.empty() || stack_.back() != id)
        rtm_panic("perfbench tracer: span %d closed out of order", id);
    stack_.pop_back();
    spans_[static_cast<size_t>(id)].end_ns = nowNs();
}

int
Tracer::add(const std::string &name, int64_t start_ns, int64_t end_ns,
            int parent, int64_t cell, int lane)
{
    Span s;
    s.name = name;
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    s.parent = parent;
    s.cell = cell;
    s.lane = lane;
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size() - 1);
}

void
Tracer::addInline(const std::string &layer, int64_t ns)
{
    inline_ns_[layer] += ns;
    if (!stack_.empty())
        spans_[static_cast<size_t>(stack_.back())].inline_ns += ns;
}

std::map<std::string, double>
Tracer::layerSelfSeconds() const
{
    // Children are sequential on the main lane, so a span's covered
    // time is the plain sum of its children's durations.
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span &s : spans_)
        if (s.lane == 0 && s.parent >= 0)
            child_ns[static_cast<size_t>(s.parent)] +=
                s.end_ns - s.start_ns;
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const std::string layer = layerOf(s.name);
        if (s.lane != 0 || layer.empty())
            continue;
        const int64_t self =
            s.end_ns - s.start_ns - child_ns[i] - s.inline_ns;
        out[layer] += static_cast<double>(self) * 1e-9;
    }
    for (const auto &[layer, ns] : inline_ns_)
        out[layer] += static_cast<double>(ns) * 1e-9;
    return out;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    rtm::JsonValue events = rtm::JsonValue::array();
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        rtm::JsonValue e = rtm::JsonValue::object();
        e.set("name", s.name);
        e.set("cat", layerOf(s.name).empty() ? "bench"
                                             : layerOf(s.name));
        e.set("ph", "X");
        e.set("ts", static_cast<double>(s.start_ns - origin_ns_) / 1e3);
        e.set("dur", static_cast<double>(s.end_ns - s.start_ns) / 1e3);
        e.set("pid", 1);
        e.set("tid", s.lane);
        rtm::JsonValue args = rtm::JsonValue::object();
        args.set("id", static_cast<int>(i));
        args.set("parent", s.parent);
        args.set("cell", static_cast<double>(s.cell));
        if (s.inline_ns > 0)
            args.set("inline_us", static_cast<double>(s.inline_ns) / 1e3);
        e.set("args", std::move(args));
        events.push(std::move(e));
    }
    rtm::JsonValue doc = rtm::JsonValue::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", "ms");
    return rtm::saveJsonFile(path, doc);
}

} // namespace perfbench
