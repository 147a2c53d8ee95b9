/**
 * @file
 * In-memory span store for the traced benchmark run.
 *
 * Spans are recorded around calls into the simulator's layers from
 * the benchmark's own code: name, start, end, parent span and the id
 * of the cell they belong to. They stay in memory and are written
 * once, at the end, as Chrome trace_event JSON. The store is not
 * thread-safe: engine workers hand their cell timings to the main
 * thread, which records them after the engine returns.
 *
 * A span's layer is the part of its name before the first dot
 * ("mem.hierarchy" -> "mem"); spans named "bench.*" are the benchmark's
 * own glue and belong to no layer. Self time is a span's duration
 * minus its children on the same lane and minus per-call layer time
 * recorded inside it with addInline().
 */

#ifndef RTM_PERFBENCH_TRACER_HH
#define RTM_PERFBENCH_TRACER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Monotonic host clock in nanoseconds. */
int64_t nowNs();

struct Span
{
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;   //!< index of the parent span, -1 = root
    int64_t cell = -1; //!< cell id shared by all spans of one cell
    int lane = 0;      //!< 0 = main thread, >0 = engine worker
    int64_t inline_ns = 0; //!< per-call layer time recorded inside
};

class Tracer
{
  public:
    /** @param origin_ns process start; the trace's time zero */
    explicit Tracer(int64_t origin_ns) : origin_ns_(origin_ns) {}

    /** Open a span on the main lane, child of the innermost open one. */
    int open(const std::string &name, int64_t cell = -1);

    /** Close the innermost open span (must be `id`). */
    void close(int id);

    /** Record a finished span with explicit bounds. */
    int add(const std::string &name, int64_t start_ns, int64_t end_ns,
            int parent, int64_t cell, int lane);

    /**
     * Attribute `ns` of per-call time to `layer` inside the innermost
     * open span (for calls too fine-grained to get a span each).
     */
    void addInline(const std::string &layer, int64_t ns);

    /** Run `fn` inside a span; returns the span's duration in ns. */
    template <typename Fn>
    int64_t time(const std::string &name, int64_t cell, Fn &&fn)
    {
        const int id = open(name, cell);
        fn();
        close(id);
        return spans_[static_cast<size_t>(id)].end_ns -
               spans_[static_cast<size_t>(id)].start_ns;
    }

    /** Self time per layer over the main lane, in seconds. */
    std::map<std::string, double> layerSelfSeconds() const;

    const std::vector<Span> &spans() const { return spans_; }

    /** Write every span as Chrome trace_event JSON. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    int64_t origin_ns_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
    std::map<std::string, int64_t> inline_ns_;
};

/** Layer of a span name ("" for the benchmark's glue). */
std::string layerOf(const std::string &name);

} // namespace perfbench

#endif // RTM_PERFBENCH_TRACER_HH
