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
    std::vector<TraceDiagnostic> diagnostics; //!< at most one
    std::string sha256; //!< the file's bytes (loadTraceFileChecked)

    /** True when the whole input parsed cleanly. */
    bool ok() const { return diagnostics.empty(); }
};

/** Default core-count bound: any core id in [0, INT_MAX). */
inline constexpr int kAnyCores = INT_MAX;

/**
 * Parse a trace from a string buffer. Parsing stops at the first
 * malformed line with a diagnostic naming it; requests hold
 * everything parsed before it. An empty input is ok() with zero
 * requests. A core id must lie in [0, cores), and a gap must fit 32
 * bits; neither is ever truncated.
 */
TraceParseResult parseTraceChecked(const std::string &text,
                                   int cores = kAnyCores);

/**
 * Checked disk load: an unreadable file yields a line-0 diagnostic
 * instead of aborting. A read file's SHA-256 is recorded, so a
 * journaled result can tell when the file changed.
 */
TraceParseResult loadTraceFileChecked(const std::string &path,
                                      int cores = kAnyCores);

/**
 * Serialise requests into the text format (round-trips through
 * parseTraceChecked).
 */
std::string formatTrace(const std::vector<MemRequest> &requests);

} // namespace rtm

#endif // RTM_TRACE_TRACE_FILE_HH
