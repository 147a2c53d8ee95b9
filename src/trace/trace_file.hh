/**
 * @file
 * Text trace-file support: lets downstream users replay real memory
 * traces through the simulator instead of the synthetic generators.
 *
 * Format: one request per line,
 *
 *     <core> <hex-or-dec address> <R|W> [gap]
 *
 * where `gap` is the number of non-memory instructions preceding the
 * request (default 0). '#' starts a comment; blank lines are
 * ignored. Example:
 *
 *     # core addr  rw gap
 *     0 0x1a2b40 R 12
 *     1 0x40       W 3
 */

#ifndef RTM_TRACE_TRACE_FILE_HH
#define RTM_TRACE_TRACE_FILE_HH

#include <climits>
#include <string>
#include <vector>

#include "trace/workload.hh"

namespace rtm
{

/** How parseTraceChecked treats malformed lines. */
enum class TraceParseMode
{
    Strict, //!< stop at the first malformed line
    Lenient //!< skip-and-warn: drop malformed lines, keep going
};

/** One problem found while parsing a trace. */
struct TraceDiagnostic
{
    int line = 0; //!< 1-based line number (0: whole-file problem)
    std::string message;
};

/** Outcome of a checked trace parse. */
struct TraceParseResult
{
    std::vector<MemRequest> requests;
    std::vector<TraceDiagnostic> diagnostics;
    int parsed_lines = 0;  //!< request lines successfully parsed
    int skipped_lines = 0; //!< malformed lines dropped (lenient)
    std::string sha256;    //!< the file's bytes (loadTraceFileChecked)

    /** True when the whole input parsed cleanly. */
    bool ok() const { return diagnostics.empty(); }
};

/** Default core-count bound: any core id in [0, INT_MAX). */
inline constexpr int kAnyCores = INT_MAX;

/**
 * Parse a trace from a string buffer with per-line diagnostics.
 * Strict mode returns at the first malformed line (requests hold
 * everything parsed before it); lenient mode records a diagnostic,
 * skips the line, and keeps going — truncated or partially garbled
 * traces still yield their well-formed requests. An empty input is
 * ok() with zero requests. A core id must lie in [0, cores), and a
 * gap must fit 32 bits; neither is ever truncated.
 */
TraceParseResult parseTraceChecked(
    const std::string &text,
    TraceParseMode mode = TraceParseMode::Strict,
    int cores = kAnyCores);

/**
 * Checked disk load: an unreadable file yields a line-0 diagnostic
 * instead of aborting. A read file's SHA-256 is recorded, so a
 * journaled result can tell when the file changed.
 */
TraceParseResult loadTraceFileChecked(
    const std::string &path,
    TraceParseMode mode = TraceParseMode::Strict,
    int cores = kAnyCores);

/**
 * Parse a trace from a string buffer (used by tests and by
 * loadTraceFile). Malformed lines are fatal with a line number.
 */
std::vector<MemRequest> parseTrace(const std::string &text);

/** Load a trace file from disk (fatal if unreadable). */
std::vector<MemRequest> loadTraceFile(const std::string &path);

/**
 * Serialise requests into the text format (round-trips through
 * parseTrace).
 */
std::string formatTrace(const std::vector<MemRequest> &requests);

/**
 * Replay adapter with the WorkloadGenerator interface shape: hands
 * out requests in order and loops back to the start when exhausted
 * (so a short trace can drive an arbitrarily long simulation).
 */
class TraceReplay
{
  public:
    explicit TraceReplay(std::vector<MemRequest> requests);

    /** Next request (wraps around at the end). */
    MemRequest next();

    /** Number of distinct requests in the trace. */
    size_t size() const { return requests_.size(); }

    /** How many times the trace has wrapped. */
    uint64_t wraps() const { return wraps_; }

  private:
    std::vector<MemRequest> requests_;
    size_t pos_ = 0;
    uint64_t wraps_ = 0;
};

} // namespace rtm

#endif // RTM_TRACE_TRACE_FILE_HH
