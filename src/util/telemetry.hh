/**
 * @file
 * Observability layer: hierarchical metrics registry and ring-buffer
 * structured event tracer.
 *
 * Design rules:
 *
 *  - *Zero cost when off.* Every instrumented component holds plain
 *    pointers (Counter*, LatencyHistogram*, Telemetry*) that are null
 *    unless a TelemetryScope was supplied, so the disabled hot path
 *    is one branch on a null pointer: no allocation, no lock, no
 *    event. Simulation results are bit-identical with telemetry on or
 *    off because instrumentation only *reads* simulator state — it
 *    never touches an RNG stream or any quantity that feeds back into
 *    a result.
 *
 *  - *Deterministic sharded merge.* Parallel call sites (runMatrix
 *    cells, campaign cells) each write a private Telemetry shard;
 *    TelemetryShards::mergeInto folds them into the root sink in
 *    shard-index order on the calling thread — the same discipline as
 *    ErrorPdf::merge — so the merged registry and event stream are
 *    bit-identical for any RTM_THREADS setting.
 *
 *  - *Reconcilable events.* The tracer keeps a bounded ring of the
 *    most recent events plus per-kind pushed totals that survive ring
 *    overwrite, so event counts can be reconciled exactly against the
 *    stats ledgers (ControllerStats, RmBankStats) even when the ring
 *    wrapped.
 *
 * Exports: writeMetricsJson (hierarchical dotted-path registry as
 * JSON) and writeChromeTrace (Chrome trace_event format, loadable in
 * chrome://tracing or Perfetto; sim-time events on pid 1, wall-clock
 * spans on pid 2). rtmsim writes them with --metrics / --trace-out.
 *
 * Wall time: every span reads one clock, monotonicSeconds()
 * (util/parallel.hh), in absolute microseconds, so spans from every
 * layer line up in one trace. ExperimentEngine times each cell once
 * and records it as an "experiment.cell" span and an
 * "experiment.cell_wall_ms" histogram sample; the Monte-Carlo kernel
 * adds "mc.run" / "mc.fit" spans. Speed is measured by
 * perfbench/run.py, not by this layer.
 */

#ifndef RTM_UTIL_TELEMETRY_HH
#define RTM_UTIL_TELEMETRY_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace rtm
{

/** Monotonic event counter ("telemetry.path" -> uint64). */
class Counter
{
  public:
    /** Add `delta` events. */
    void add(uint64_t delta = 1) { value_ += delta; }

    uint64_t value() const { return value_; }

  private:
    friend class Telemetry;
    uint64_t value_ = 0;
};

/** Last-write-wins scalar ("telemetry.path" -> double). */
class Gauge
{
  public:
    void set(double v)
    {
        value_ = v;
        set_ = true;
    }

    double value() const { return value_; }

    /** Whether set() was ever called. */
    bool isSet() const { return set_; }

  private:
    friend class Telemetry;
    double value_ = 0.0;
    bool set_ = false;
};

/**
 * Latency histogram with fixed bucket edges.
 *
 * Bucket i of n+1 counts samples in [edges[i-1], edges[i]); bucket 0
 * is (-inf, edges[0]) and bucket n is [edges[n-1], +inf). Edges are
 * fixed at registration so shards of the same histogram always merge
 * bucket-for-bucket.
 */
class LatencyHistogram
{
  public:
    /** @param edges strictly increasing bucket boundaries (>= 1). */
    explicit LatencyHistogram(std::vector<double> edges);

    /** Record one sample (binary search over the edges). */
    void record(double value, uint64_t weight = 1);

    /** Bucket-wise sum; panics when the edges differ. */
    void merge(const LatencyHistogram &other);

    const std::vector<double> &edges() const { return edges_; }

    /** Count in bucket i (edges().size() + 1 buckets). */
    uint64_t count(size_t bucket) const { return counts_[bucket]; }

    size_t buckets() const { return counts_.size(); }

    /** Total samples recorded. */
    uint64_t total() const { return total_; }

    /** Sum of all sample values (mean = sum / total). */
    double sum() const { return sum_; }

  private:
    std::vector<double> edges_;
    std::vector<uint64_t> counts_;
    uint64_t total_ = 0;
    double sum_ = 0.0;
};

/** Power-of-two bucket edges [1, 2, 4, ... <= hi] (cycle latencies). */
std::vector<double> powerOfTwoEdges(double hi);

/** Structured event classes traced across the stack. */
enum class EventKind : uint8_t
{
    ShiftIssued,    //!< a shift sequence was issued (bank/controller)
    ErrorInjected,  //!< ground truth: a position error was injected
    ErrorDetected,  //!< p-ECC detection fired
    RecoveryRung,   //!< an escalation-ladder rung ended an episode
    GroupRetired,   //!< a stripe group was retired (degradation)
    FrameRemapped,  //!< an access was served via a remapped group
    CacheMissBurst, //!< a run of consecutive LLC misses
    Span,           //!< wall-clock span (a0 = duration in us)
    Phase,          //!< pipeline phase marker
    Custom,         //!< tool-defined
    kCount
};

/** Stable lowercase name of an event kind. */
const char *eventKindName(EventKind kind);

/**
 * One traced event. `name` must point at a string literal (or any
 * storage outliving the Telemetry sink): events are fixed-size so the
 * enabled path never allocates.
 */
struct TraceEvent
{
    EventKind kind = EventKind::Custom;
    uint32_t lane = 0;      //!< logical lane (shard / cell index)
    uint64_t timestamp = 0; //!< sim cycles (Span/Phase: wall us)
    uint64_t seq = 0;       //!< per-sink push sequence number
    const char *name = "";  //!< static detail string
    double a0 = 0.0;        //!< payload (kind-specific)
    double a1 = 0.0;        //!< payload (kind-specific)
};

/**
 * One telemetry sink: a metrics registry plus a bounded event ring.
 *
 * Not thread-safe by design — parallel producers use one shard each
 * (TelemetryShards) and merge deterministically.
 */
class Telemetry
{
  public:
    /** Default event-ring capacity (most recent events kept). */
    static constexpr size_t kDefaultRingCapacity = 8192;

    /**
     * @param ring_capacity events retained before overwriting oldest
     * @param lane          lane id stamped on events from this sink
     */
    explicit Telemetry(size_t ring_capacity = kDefaultRingCapacity,
                       uint32_t lane = 0);

    /** Lane id stamped on events pushed into this sink. */
    uint32_t lane() const { return lane_; }

    /**
     * Find-or-create the counter at a dotted path (e.g.
     * "mem.l3.misses"). The reference is stable for the sink's
     * lifetime, so hot paths register once and keep the pointer.
     */
    Counter &counter(const std::string &path);

    /** Find-or-create a gauge. */
    Gauge &gauge(const std::string &path);

    /**
     * Find-or-create a histogram. `edges` is used on first
     * registration; a later call with different edges panics (one
     * schema per path).
     */
    LatencyHistogram &histogram(const std::string &path,
                                const std::vector<double> &edges);

    /** Push one event (ring overwrite-oldest; never allocates). */
    void event(EventKind kind, const char *name, uint64_t timestamp,
               double a0 = 0.0, double a1 = 0.0);

    /**
     * Push a wall-clock Span on `lane` that began at
     * monotonicSeconds() `start_s` and lasted `seconds`; its
     * timestamp and a0 (duration) are in microseconds.
     */
    void span(const char *name, uint32_t lane, double start_s,
              double seconds, double a1 = 0.0);

    /** Events pushed of `kind`, including any the ring dropped. */
    uint64_t eventCount(EventKind kind) const
    {
        return kind_totals_[static_cast<size_t>(kind)];
    }

    /** Total events pushed (all kinds). */
    uint64_t eventsPushed() const { return pushed_; }

    /** Events lost to ring overwrite. */
    uint64_t eventsDropped() const;

    /** Retained events, oldest first. */
    std::vector<TraceEvent> ringEvents() const;

    /**
     * Fold a shard into this sink: counters add, gauges last-set
     * wins, histograms merge bucket-wise, events append in the
     * shard's push order (keeping their lane). Call in shard-index
     * order for deterministic results.
     */
    void merge(const Telemetry &shard);

    /** Registry views (sorted by path; test/export introspection). */
    const std::map<std::string, Counter> &counters() const
    {
        return counters_;
    }
    const std::map<std::string, Gauge> &gauges() const
    {
        return gauges_;
    }
    const std::map<std::string, LatencyHistogram> &histograms() const
    {
        return histograms_;
    }

    /**
     * Write the registry + event summary as JSON. Returns false on
     * I/O error.
     */
    bool writeMetricsJson(const std::string &path) const;

    /**
     * Write retained events in Chrome trace_event format (JSON
     * object with a "traceEvents" array). Sim-time events appear
     * under pid 1 with their cycle timestamp as "ts"; Span/Phase
     * events under pid 2 with wall-clock microseconds. Returns false
     * on I/O error.
     */
    bool writeChromeTrace(const std::string &path) const;

  private:
    /** Push one event on `lane`, counting it in its kind's total. */
    void push(EventKind kind, uint32_t lane, const char *name,
              uint64_t timestamp, double a0, double a1);
    /** Ring insertion (overwrite-oldest), restamping `seq`. */
    void append(TraceEvent ev);

    uint32_t lane_;
    std::map<std::string, Counter> counters_;
    std::map<std::string, Gauge> gauges_;
    std::map<std::string, LatencyHistogram> histograms_;

    // Event ring: fixed storage, overwrite-oldest.
    std::vector<TraceEvent> ring_;
    size_t ring_capacity_;
    size_t ring_head_ = 0; //!< next write slot once full
    uint64_t pushed_ = 0;
    uint64_t kind_totals_[static_cast<size_t>(EventKind::kCount)] =
        {};
};

/**
 * Cheap nullable handle to a Telemetry sink. Default-constructed =
 * telemetry disabled; every guard is `if (scope)`.
 */
class TelemetryScope
{
  public:
    constexpr TelemetryScope() = default;
    /*implicit*/ TelemetryScope(Telemetry *sink) : sink_(sink) {}

    explicit operator bool() const { return sink_ != nullptr; }

    Telemetry *operator->() const { return sink_; }

    Telemetry *get() const { return sink_; }

  private:
    Telemetry *sink_ = nullptr;
};

/**
 * Per-shard sinks for parallel producers, merged deterministically.
 *
 * When the root scope is disabled every shard scope is disabled too,
 * so the parallel region pays nothing. Shard i's events are stamped
 * with lane i.
 */
class TelemetryShards
{
  public:
    /**
     * @param root   the sink shards will merge into (may be null)
     * @param shards number of independent producers
     * @param ring_capacity per-shard event-ring capacity
     */
    TelemetryShards(TelemetryScope root, size_t shards,
                    size_t ring_capacity =
                        Telemetry::kDefaultRingCapacity);

    /** Scope for producer i (disabled when the root is disabled). */
    TelemetryScope shard(size_t i);

    /**
     * Merge every shard into the root in index order. Idempotent-safe
     * only once; call after the parallel region completes.
     */
    void mergeIntoRoot();

  private:
    TelemetryScope root_;
    std::vector<std::unique_ptr<Telemetry>> shards_;
};

} // namespace rtm

#endif // RTM_UTIL_TELEMETRY_HH
