#include "telemetry.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/logging.hh"
#include "util/serde.hh"

namespace rtm
{

// --- LatencyHistogram ------------------------------------------------

LatencyHistogram::LatencyHistogram(std::vector<double> edges)
    : edges_(std::move(edges))
{
    if (edges_.empty())
        rtm_panic("LatencyHistogram needs at least one edge");
    for (size_t i = 1; i < edges_.size(); ++i) {
        if (!(edges_[i - 1] < edges_[i]))
            rtm_panic("histogram edges must be strictly increasing");
    }
    counts_.assign(edges_.size() + 1, 0);
}

void
LatencyHistogram::record(double value, uint64_t weight)
{
    size_t bucket = static_cast<size_t>(
        std::upper_bound(edges_.begin(), edges_.end(), value) -
        edges_.begin());
    counts_[bucket] += weight;
    total_ += weight;
    sum_ += value * static_cast<double>(weight);
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    if (edges_ != other.edges_)
        rtm_panic("LatencyHistogram::merge: bucket edges differ");
    for (size_t i = 0; i < counts_.size(); ++i)
        counts_[i] += other.counts_[i];
    total_ += other.total_;
    sum_ += other.sum_;
}

std::vector<double>
powerOfTwoEdges(double hi)
{
    std::vector<double> edges;
    for (double e = 1.0; e <= hi; e *= 2.0)
        edges.push_back(e);
    if (edges.empty())
        edges.push_back(1.0);
    return edges;
}

// --- events ----------------------------------------------------------

const char *
eventKindName(EventKind kind)
{
    switch (kind) {
      case EventKind::ShiftIssued: return "shift_issued";
      case EventKind::ErrorInjected: return "error_injected";
      case EventKind::ErrorDetected: return "error_detected";
      case EventKind::RecoveryRung: return "recovery_rung";
      case EventKind::GroupRetired: return "group_retired";
      case EventKind::FrameRemapped: return "frame_remapped";
      case EventKind::CacheMissBurst: return "cache_miss_burst";
      case EventKind::Span: return "span";
      case EventKind::Phase: return "phase";
      case EventKind::Custom: return "custom";
      case EventKind::kCount: break;
    }
    return "?";
}

// --- Telemetry -------------------------------------------------------

Telemetry::Telemetry(size_t ring_capacity, uint32_t lane)
    : lane_(lane), ring_capacity_(std::max<size_t>(ring_capacity, 1))
{
    // The ring is pre-sized so event() never allocates; push order is
    // tracked by `pushed_` and the head index.
    ring_.reserve(ring_capacity_);
}

Counter &
Telemetry::counter(const std::string &path)
{
    return counters_[path]; // map nodes are reference-stable
}

Gauge &
Telemetry::gauge(const std::string &path)
{
    return gauges_[path];
}

LatencyHistogram &
Telemetry::histogram(const std::string &path,
                     const std::vector<double> &edges)
{
    auto it = histograms_.find(path);
    if (it == histograms_.end()) {
        it = histograms_
                 .emplace(path, LatencyHistogram(edges))
                 .first;
    } else if (it->second.edges() != edges) {
        rtm_panic("histogram '%s' re-registered with different "
                  "edges",
                  path.c_str());
    }
    return it->second;
}

void
Telemetry::event(EventKind kind, const char *name,
                 uint64_t timestamp, double a0, double a1)
{
    push(kind, lane_, name, timestamp, a0, a1);
}

void
Telemetry::span(const char *name, uint32_t lane, double start_s,
                double seconds, double a1)
{
    push(EventKind::Span, lane, name,
         static_cast<uint64_t>(start_s * 1e6), seconds * 1e6, a1);
}

void
Telemetry::push(EventKind kind, uint32_t lane, const char *name,
                uint64_t timestamp, double a0, double a1)
{
    TraceEvent ev;
    ev.kind = kind;
    ev.lane = lane;
    ev.timestamp = timestamp;
    ev.name = name;
    ev.a0 = a0;
    ev.a1 = a1;
    append(ev);
    ++kind_totals_[static_cast<size_t>(kind)];
}

void
Telemetry::append(TraceEvent ev)
{
    ev.seq = pushed_;
    if (ring_.size() < ring_capacity_) {
        ring_.push_back(ev);
    } else {
        ring_[ring_head_] = ev;
        ring_head_ = (ring_head_ + 1) % ring_capacity_;
    }
    ++pushed_;
}

uint64_t
Telemetry::eventsDropped() const
{
    return pushed_ - static_cast<uint64_t>(ring_.size());
}

std::vector<TraceEvent>
Telemetry::ringEvents() const
{
    std::vector<TraceEvent> out;
    out.reserve(ring_.size());
    for (size_t i = 0; i < ring_.size(); ++i)
        out.push_back(
            ring_[(ring_head_ + i) % ring_.size()]);
    return out;
}

void
Telemetry::merge(const Telemetry &shard)
{
    for (const auto &[path, c] : shard.counters_)
        counters_[path].value_ += c.value_;
    for (const auto &[path, g] : shard.gauges_) {
        if (g.set_)
            gauges_[path].set(g.value_);
    }
    for (const auto &[path, h] : shard.histograms_) {
        histogram(path, h.edges()).merge(h);
    }
    // Events append in the shard's push order with their original
    // lane; kind totals fold even for events the shard's ring
    // dropped, so reconciliation counts survive the merge.
    for (const TraceEvent &ev : shard.ringEvents())
        append(ev);
    uint64_t ring_merged =
        static_cast<uint64_t>(shard.ring_.size());
    uint64_t shard_dropped = shard.pushed_ - ring_merged;
    pushed_ += shard_dropped; // account drops without replaying them
    for (size_t k = 0; k < static_cast<size_t>(EventKind::kCount);
         ++k) {
        kind_totals_[k] += shard.kind_totals_[k];
    }
}

namespace
{

/** Append a JSON number: %.17g, or null when `v` is not finite. */
void
appendNumber(std::string &out, double v)
{
    if (!std::isfinite(v)) {
        out += "null";
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
}

/**
 * Open the next member of a pretty-printed object: `"name": ` on a
 * new line, after a comma unless it is the first (`out` still ends
 * with the object's `{`).
 */
void
appendKey(std::string &out, const char *indent, const std::string &name)
{
    out += out.back() == '{' ? "\n" : ",\n";
    out += indent;
    appendJsonString(out, name);
    out += ": ";
}

} // anonymous namespace

bool
Telemetry::writeMetricsJson(const std::string &path) const
{
    std::string out = "{\n  \"counters\": {";
    for (const auto &[name, c] : counters_) {
        appendKey(out, "    ", name);
        out += std::to_string(c.value());
    }
    out += "\n  },\n  \"gauges\": {";
    for (const auto &[name, g] : gauges_) {
        appendKey(out, "    ", name);
        appendNumber(out, g.value());
    }
    out += "\n  },\n  \"histograms\": {";
    for (const auto &[name, h] : histograms_) {
        appendKey(out, "    ", name);
        out += "{\"edges\": [";
        for (size_t i = 0; i < h.edges().size(); ++i) {
            if (i)
                out += ", ";
            appendNumber(out, h.edges()[i]);
        }
        out += "], \"counts\": [";
        for (size_t i = 0; i < h.buckets(); ++i) {
            if (i)
                out += ", ";
            out += std::to_string(h.count(i));
        }
        out += "], \"total\": " + std::to_string(h.total()) +
               ", \"sum\": ";
        appendNumber(out, h.sum());
        out += "}";
    }
    out += "\n  },\n  \"events\": {\n    \"pushed\": {";
    for (size_t k = 0; k < static_cast<size_t>(EventKind::kCount);
         ++k) {
        if (kind_totals_[k] == 0)
            continue;
        appendKey(out, "      ",
                  eventKindName(static_cast<EventKind>(k)));
        out += std::to_string(kind_totals_[k]);
    }
    out += "\n    },\n    \"total\": " + std::to_string(pushed_) +
           ",\n    \"dropped\": " + std::to_string(eventsDropped()) +
           ",\n    \"retained\": " + std::to_string(ring_.size()) +
           "\n  }\n}\n";
    return saveTextFileAtomic(path, out);
}

bool
Telemetry::writeChromeTrace(const std::string &path) const
{
    std::string out =
        "{\"traceEvents\": [\n"
        "  {\"ph\": \"M\", \"pid\": 1, \"name\": \"process_name\", "
        "\"args\": {\"name\": \"sim-time (cycles)\"}},\n"
        "  {\"ph\": \"M\", \"pid\": 2, \"name\": \"process_name\", "
        "\"args\": {\"name\": \"wall-clock (us)\"}}";
    for (const TraceEvent &ev : ringEvents()) {
        const bool wall = ev.kind == EventKind::Span ||
                          ev.kind == EventKind::Phase;
        const std::string kind = eventKindName(ev.kind);
        out += ",\n  {\"name\": ";
        appendJsonString(out, kind + "." + ev.name);
        out += ", \"cat\": \"" + kind + "\", \"ph\": \"" +
               (wall ? "X" : "i") +
               "\", \"ts\": " + std::to_string(ev.timestamp) + ", ";
        if (wall) {
            char dur[400]; // room for %.3f of any finite double
            std::snprintf(dur, sizeof(dur), "\"dur\": %.3f, ", ev.a0);
            out += dur;
        } else {
            out += "\"s\": \"t\", ";
        }
        out += wall ? "\"pid\": 2, \"tid\": " : "\"pid\": 1, \"tid\": ";
        out += std::to_string(ev.lane) + ", \"args\": {\"a0\": ";
        appendNumber(out, ev.a0);
        out += ", \"a1\": ";
        appendNumber(out, ev.a1);
        out += ", \"seq\": " + std::to_string(ev.seq) + "}}";
    }
    out += "\n]}\n";
    return saveTextFileAtomic(path, out);
}

// --- TelemetryShards -------------------------------------------------

TelemetryShards::TelemetryShards(TelemetryScope root, size_t shards,
                                 size_t ring_capacity)
    : root_(root)
{
    if (!root_)
        return; // disabled: every shard scope stays null
    shards_.reserve(shards);
    for (size_t i = 0; i < shards; ++i)
        shards_.push_back(std::make_unique<Telemetry>(
            ring_capacity, static_cast<uint32_t>(i)));
}

TelemetryScope
TelemetryShards::shard(size_t i)
{
    if (!root_)
        return {};
    return TelemetryScope(shards_.at(i).get());
}

void
TelemetryShards::mergeIntoRoot()
{
    if (!root_)
        return;
    for (const auto &shard : shards_)
        root_->merge(*shard);
}

} // namespace rtm
