/**
 * @file
 * Telemetry-layer tests: registry find-or-create semantics, histogram
 * bucket-edge behaviour, event-ring overwrite accounting, shard-merge
 * determinism across thread counts, disabled-path zero-cost
 * (no allocations, no events), and the byte layout of the JSON /
 * Chrome-trace writers.
 *
 * The binary links counting replacements of the global operator
 * new/delete (alloc_counter.hh) so the zero-allocation claims are
 * measured, not assumed. Each test file builds into its own binary,
 * so the override is contained.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "alloc_counter.hh"
#include "util/parallel.hh"
#include "util/serde.hh"
#include "util/telemetry.hh"

namespace rtm
{
namespace
{

TEST(Telemetry, CounterFindOrCreateIsRefStable)
{
    Telemetry t;
    Counter &a = t.counter("mem.l3.misses");
    a.add();
    a.add(41);
    Counter &b = t.counter("mem.l3.misses");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(b.value(), 42u);
    EXPECT_EQ(t.counters().size(), 1u);
    t.counter("mem.l3.hits");
    EXPECT_EQ(t.counters().size(), 2u);
    // The registry view is sorted by dotted path.
    EXPECT_EQ(t.counters().begin()->first, "mem.l3.hits");
}

TEST(Telemetry, GaugeLastWriteWins)
{
    Telemetry t;
    Gauge &g = t.gauge("sim.ipc");
    EXPECT_FALSE(g.isSet());
    g.set(1.5);
    g.set(2.25);
    EXPECT_TRUE(g.isSet());
    EXPECT_EQ(g.value(), 2.25);
    EXPECT_EQ(&g, &t.gauge("sim.ipc"));
}

TEST(Telemetry, HistogramBucketEdgeSemantics)
{
    Telemetry t;
    LatencyHistogram &h =
        t.histogram("lat", {1.0, 2.0, 4.0});
    ASSERT_EQ(h.buckets(), 4u); // (-inf,1) [1,2) [2,4) [4,+inf)
    h.record(0.5);  // below the first edge
    h.record(1.0);  // left-closed: exactly on an edge
    h.record(1.99);
    h.record(2.0);
    h.record(4.0);  // top bucket is right-open to +inf
    h.record(1e9);
    EXPECT_EQ(h.count(0), 1u);
    EXPECT_EQ(h.count(1), 2u);
    EXPECT_EQ(h.count(2), 1u);
    EXPECT_EQ(h.count(3), 2u);
    EXPECT_EQ(h.total(), 6u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.99 + 2.0 + 4.0 + 1e9);

    // Re-registration returns the same histogram.
    EXPECT_EQ(&h, &t.histogram("lat", {1.0, 2.0, 4.0}));
}

TEST(Telemetry, HistogramMergeIsBucketwise)
{
    std::vector<double> edges = powerOfTwoEdges(8.0);
    ASSERT_EQ(edges, (std::vector<double>{1.0, 2.0, 4.0, 8.0}));
    Telemetry a, b;
    LatencyHistogram &ha = a.histogram("x", edges);
    LatencyHistogram &hb = b.histogram("x", edges);
    ha.record(3.0, 2);
    hb.record(3.0);
    hb.record(100.0);
    ha.merge(hb);
    EXPECT_EQ(ha.total(), 4u);
    EXPECT_EQ(ha.count(2), 3u); // [2,4)
    EXPECT_EQ(ha.count(4), 1u); // [8,+inf)
    EXPECT_DOUBLE_EQ(ha.sum(), 2 * 3.0 + 3.0 + 100.0);
}

TEST(Telemetry, EventTotalsSurviveRingOverwrite)
{
    Telemetry t(4, /*lane=*/7);
    for (uint64_t i = 0; i < 10; ++i)
        t.event(i % 2 ? EventKind::ShiftIssued
                      : EventKind::ErrorDetected,
                "op", i, static_cast<double>(i));
    EXPECT_EQ(t.eventsPushed(), 10u);
    EXPECT_EQ(t.eventsDropped(), 6u);
    EXPECT_EQ(t.eventCount(EventKind::ShiftIssued), 5u);
    EXPECT_EQ(t.eventCount(EventKind::ErrorDetected), 5u);

    // The ring keeps the most recent events, oldest first.
    std::vector<TraceEvent> ring = t.ringEvents();
    ASSERT_EQ(ring.size(), 4u);
    for (size_t i = 0; i < ring.size(); ++i) {
        EXPECT_EQ(ring[i].seq, 6 + i);
        EXPECT_EQ(ring[i].timestamp, 6 + i);
        EXPECT_EQ(ring[i].lane, 7u);
        EXPECT_STREQ(ring[i].name, "op");
    }
}

TEST(Telemetry, MergeFoldsRegistriesAndAppendsEvents)
{
    Telemetry root(16);
    Telemetry shard(16, /*lane=*/3);
    root.counter("n").add(10);
    shard.counter("n").add(5);
    shard.counter("only_in_shard").add(1);
    root.gauge("g").set(1.0);
    shard.gauge("g").set(2.0);
    shard.histogram("h", {1.0}).record(0.5);
    root.event(EventKind::Custom, "root", 1);
    shard.event(EventKind::Custom, "shard", 2);

    root.merge(shard);
    EXPECT_EQ(root.counter("n").value(), 15u);
    EXPECT_EQ(root.counter("only_in_shard").value(), 1u);
    EXPECT_EQ(root.gauge("g").value(), 2.0); // last-set wins
    EXPECT_EQ(root.histogram("h", {1.0}).total(), 1u);
    std::vector<TraceEvent> ring = root.ringEvents();
    ASSERT_EQ(ring.size(), 2u);
    EXPECT_STREQ(ring[0].name, "root");
    EXPECT_STREQ(ring[1].name, "shard");
    EXPECT_EQ(ring[1].lane, 3u); // lanes survive the merge
    EXPECT_EQ(root.eventCount(EventKind::Custom), 2u);
}

/** Shard-writing workload used by the determinism test. */
void
writeShardedTelemetry(Telemetry &root, size_t cells)
{
    TelemetryShards shards(&root, cells, /*ring_capacity=*/64);
    parallelFor(cells, [&](size_t i) {
        TelemetryScope scope = shards.shard(i);
        ASSERT_TRUE(static_cast<bool>(scope));
        scope->counter("work.items").add(i + 1);
        scope->histogram("work.size", powerOfTwoEdges(16.0))
            .record(static_cast<double>(i % 8));
        for (uint64_t k = 0; k < 3; ++k)
            scope->event(EventKind::Custom, "cell", 100 * i + k,
                         static_cast<double>(i));
    });
    shards.mergeIntoRoot();
}

TEST(Telemetry, ShardMergeBitIdenticalAcrossThreadCounts)
{
    const size_t cells = 13;
    ThreadPool::setGlobalThreads(1);
    Telemetry serial(256);
    writeShardedTelemetry(serial, cells);
    ThreadPool::setGlobalThreads(4);
    Telemetry parallel(256);
    writeShardedTelemetry(parallel, cells);
    ThreadPool::setGlobalThreads(ThreadPool::configuredThreads());

    EXPECT_EQ(serial.counter("work.items").value(),
              cells * (cells + 1) / 2);
    EXPECT_EQ(serial.counter("work.items").value(),
              parallel.counter("work.items").value());
    const LatencyHistogram &hs =
        serial.histogram("work.size", powerOfTwoEdges(16.0));
    const LatencyHistogram &hp =
        parallel.histogram("work.size", powerOfTwoEdges(16.0));
    EXPECT_EQ(hs.total(), cells);
    for (size_t b = 0; b < hs.buckets(); ++b)
        EXPECT_EQ(hs.count(b), hp.count(b));
    EXPECT_EQ(hs.sum(), hp.sum());

    // The merged event stream is identical event-for-event: shards
    // are folded in index order regardless of execution order.
    std::vector<TraceEvent> es = serial.ringEvents();
    std::vector<TraceEvent> ep = parallel.ringEvents();
    ASSERT_EQ(es.size(), 3 * cells);
    ASSERT_EQ(es.size(), ep.size());
    for (size_t i = 0; i < es.size(); ++i) {
        EXPECT_EQ(es[i].kind, ep[i].kind);
        EXPECT_EQ(es[i].lane, ep[i].lane);
        EXPECT_EQ(es[i].timestamp, ep[i].timestamp);
        EXPECT_EQ(es[i].seq, ep[i].seq);
        EXPECT_EQ(es[i].a0, ep[i].a0);
        EXPECT_EQ(es[i].lane, i / 3); // lane == shard index
    }
}

TEST(Telemetry, DisabledScopeIsNull)
{
    TelemetryScope off;
    EXPECT_FALSE(static_cast<bool>(off));
    EXPECT_EQ(off.get(), nullptr);
    Telemetry t;
    TelemetryScope on(&t);
    EXPECT_TRUE(static_cast<bool>(on));
    EXPECT_EQ(on.get(), &t);
    on->counter("c").add();
    EXPECT_EQ(t.counter("c").value(), 1u);
}

TEST(Telemetry, DisabledPathMakesNoAllocationsAndNoEvents)
{
    // The instrumented-component pattern: registration is skipped
    // entirely when the scope is disabled, leaving null pointers.
    TelemetryScope scope;
    Counter *hits = scope ? &scope->counter("hits") : nullptr;
    LatencyHistogram *lat =
        scope ? &scope->histogram("lat", powerOfTwoEdges(64.0))
              : nullptr;
    Telemetry *events = scope.get();
    ASSERT_EQ(hits, nullptr);
    ASSERT_EQ(lat, nullptr);
    ASSERT_EQ(events, nullptr);

    uint64_t sink = 0;
    const uint64_t before = globalAllocationCount();
    for (uint64_t i = 0; i < 100000; ++i) {
        if (hits)
            hits->add();
        if (lat)
            lat->record(static_cast<double>(i));
        if (events)
            events->event(EventKind::ShiftIssued, "s", i);
        sink += i; // keep the loop observable
    }
    const uint64_t after = globalAllocationCount();
    EXPECT_EQ(after - before, 0u)
        << "disabled telemetry must not allocate";
    EXPECT_EQ(sink, 99999ull * 100000 / 2);
}

TEST(Telemetry, EnabledHotPathDoesNotAllocateAfterRegistration)
{
    Telemetry t(128);
    Counter &hits = t.counter("hits");
    LatencyHistogram &lat =
        t.histogram("lat", powerOfTwoEdges(64.0));
    // Warm-up: first pushes, so the ring and any lazily grown
    // structures reach steady state before counting.
    for (uint64_t i = 0; i < 256; ++i)
        t.event(EventKind::ShiftIssued, "s", i);

    const uint64_t before = globalAllocationCount();
    for (uint64_t i = 0; i < 100000; ++i) {
        hits.add();
        lat.record(static_cast<double>(i % 100));
        t.event(EventKind::ShiftIssued, "s", i,
                static_cast<double>(i % 7));
    }
    const uint64_t after = globalAllocationCount();
    EXPECT_EQ(after - before, 0u)
        << "counter add / histogram record / event push must be "
           "allocation-free on the steady-state hot path";
    EXPECT_EQ(hits.value(), 100000u);
    EXPECT_EQ(t.eventsPushed(), 100256u);
}

std::string
slurp(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    EXPECT_NE(f, nullptr) << path;
    if (!f)
        return "";
    std::string out;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    std::remove(path.c_str());
    return out;
}

// The exports' exact bytes, as written before they moved onto the
// shared atomic writer and escaper. Counters print as exact integers
// (2^53 + 1 survives), non-finite numbers as null, and names go
// through JSON string escaping.
const char *const kExpectedMetrics = R"json({
  "counters": {
    "sim.big": 9007199254740993,
    "sim.requests": 6000
  },
  "gauges": {
    "sim.\"q\"\t\\": -0.10000000000000001,
    "sim.ipc": 1.25,
    "sim.nan": null
  },
  "histograms": {
    "sim.lat": {"edges": [1, 2, 4, 8], "counts": [0, 0, 1, 0, 0], "total": 1, "sum": 3}
  },
  "events": {
    "pushed": {
      "shift_issued": 1,
      "span": 1,
      "custom": 1
    },
    "total": 3,
    "dropped": 0,
    "retained": 3
  }
}
)json";

const char *const kExpectedTrace = R"json({"traceEvents": [
  {"ph": "M", "pid": 1, "name": "process_name", "args": {"name": "sim-time (cycles)"}},
  {"ph": "M", "pid": 2, "name": "process_name", "args": {"name": "wall-clock (us)"}},
  {"name": "shift_issued.bank", "cat": "shift_issued", "ph": "i", "ts": 123, "s": "t", "pid": 1, "tid": 0, "args": {"a0": 4, "a1": 17, "seq": 0}},
  {"name": "span.runner.cell", "cat": "span", "ph": "X", "ts": 1000, "dur": 2500.000, "pid": 2, "tid": 0, "args": {"a0": 2500, "a1": 0, "seq": 1}},
  {"name": "custom.a\\b", "cat": "custom", "ph": "i", "ts": 7, "s": "t", "pid": 1, "tid": 0, "args": {"a0": null, "a1": 0.10000000000000001, "seq": 2}}
]}
)json";

TEST(Telemetry, WritesMetricsJsonAndChromeTrace)
{
    Telemetry t(64);
    t.counter("sim.requests").add(6000);
    t.counter("sim.big").add((uint64_t{1} << 53) + 1);
    t.gauge("sim.ipc").set(1.25);
    t.gauge("sim.nan").set(std::nan(""));
    t.gauge("sim.\"q\"\t\\").set(-0.1);
    t.histogram("sim.lat", powerOfTwoEdges(8.0)).record(3.0);
    t.event(EventKind::ShiftIssued, "bank", 123, 4.0, 17.0);
    t.event(EventKind::Span, "runner.cell", 1000, 2500.0);
    t.event(EventKind::Custom, "a\\b", 7, HUGE_VAL, 0.1);

    const std::string mpath = "/tmp/rtm_telemetry_test.json";
    const std::string tpath = "/tmp/rtm_telemetry_test.trace.json";
    ASSERT_TRUE(t.writeMetricsJson(mpath));
    ASSERT_TRUE(t.writeChromeTrace(tpath));

    const std::string metrics = slurp(mpath);
    const std::string trace = slurp(tpath);
    EXPECT_EQ(metrics, kExpectedMetrics);
    EXPECT_EQ(trace, kExpectedTrace);
    for (const std::string *text : {&metrics, &trace}) {
        JsonValue doc;
        std::string error;
        EXPECT_TRUE(JsonValue::parse(*text, &doc, &error)) << error;
    }

    EXPECT_FALSE(t.writeMetricsJson("/nonexistent/dir/m.json"));
    EXPECT_FALSE(t.writeChromeTrace("/nonexistent/dir/t.json"));
}

TEST(Telemetry, DisabledShardsAreDisabled)
{
    TelemetryShards shards(TelemetryScope(), 4);
    for (size_t i = 0; i < 4; ++i)
        EXPECT_FALSE(static_cast<bool>(shards.shard(i)));
    shards.mergeIntoRoot(); // no-op, must not crash
}

} // namespace
} // namespace rtm
