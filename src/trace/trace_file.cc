#include "trace_file.hh"

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/hash.hh"

namespace rtm
{

namespace
{

/**
 * Parse one non-blank trace line. Returns true on success; on
 * failure fills `error` with the reason (no line-number prefix).
 */
bool
parseTraceLine(const std::string &line, int cores, MemRequest &req,
               std::string &error)
{
    std::istringstream fields(line);
    std::string addr_str, rw;
    long core;
    if (!(fields >> core >> addr_str >> rw)) {
        error = "expected '<core> <addr> <R|W> [gap]'";
        return false;
    }
    if (core < 0) {
        error = "negative core id";
        return false;
    }
    if (core >= cores) {
        error = "core id " + std::to_string(core) + " out of range";
        if (cores < kAnyCores)
            error += " (" + std::to_string(cores) + " cores)";
        return false;
    }
    req.core = static_cast<int>(core);
    // Only the two documented stoull parse failures are recoverable
    // per-line problems; anything else (bad_alloc, ...) is a real
    // error and must propagate, not read as "malformed line".
    try {
        req.addr = std::stoull(addr_str, nullptr, 0);
    } catch (const std::invalid_argument &) {
        error = "bad address '" + addr_str + "'";
        return false;
    } catch (const std::out_of_range &) {
        error = "address '" + addr_str + "' out of range";
        return false;
    }
    if (rw == "R" || rw == "r") {
        req.is_write = false;
    } else if (rw == "W" || rw == "w") {
        req.is_write = true;
    } else {
        error = "access type must be R or W, got '" + rw + "'";
        return false;
    }
    long gap = 0;
    if (fields >> gap) {
        if (gap < 0) {
            error = "negative gap";
            return false;
        }
        if (gap > static_cast<long>(UINT32_MAX)) {
            error = "gap " + std::to_string(gap) + " out of range";
            return false;
        }
        req.gap_instructions = static_cast<uint32_t>(gap);
    }
    return true;
}

} // anonymous namespace

TraceParseResult
parseTraceChecked(const std::string &text, int cores)
{
    TraceParseResult result;
    std::istringstream in(text);
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        // Strip comments.
        size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        // Skip blank lines.
        bool blank = true;
        for (char c : line)
            if (!std::isspace(static_cast<unsigned char>(c)))
                blank = false;
        if (blank)
            continue;

        MemRequest req;
        std::string error;
        if (!parseTraceLine(line, cores, req, error)) {
            result.diagnostics.push_back({line_no, error});
            break;
        }
        result.requests.push_back(req);
    }
    return result;
}

namespace
{

/**
 * Slurp a trace file, distinguishing "cannot open" and mid-read I/O
 * errors (disk failure, EIO, reading a directory) from success. An
 * I/O error must NOT degrade to an empty or truncated trace — a
 * silently half-loaded trace would replay as a different workload.
 */
bool
slurpTraceFile(const std::string &path, std::string *text,
               std::string *error)
{
    std::ifstream f(path, std::ios::binary);
    if (!f) {
        *error = "cannot open trace file '" + path + "'";
        return false;
    }
    text->clear();
    char chunk[4096];
    do {
        f.read(chunk, sizeof(chunk));
        text->append(chunk, static_cast<size_t>(f.gcount()));
    } while (f.good());
    if (f.bad()) {
        *error = "I/O error reading trace file '" + path + "'";
        return false;
    }
    return true;
}

} // anonymous namespace

TraceParseResult
loadTraceFileChecked(const std::string &path, int cores)
{
    std::string text, error;
    if (!slurpTraceFile(path, &text, &error)) {
        TraceParseResult result;
        result.diagnostics.push_back({0, error});
        return result;
    }
    TraceParseResult result = parseTraceChecked(text, cores);
    result.sha256 = sha256Hex(text.data(), text.size());
    return result;
}

std::string
formatTrace(const std::vector<MemRequest> &requests)
{
    std::string out = "# core addr rw gap\n";
    char line[96];
    for (const auto &r : requests) {
        std::snprintf(line, sizeof(line), "%d 0x%llx %c %u\n",
                      r.core,
                      static_cast<unsigned long long>(r.addr),
                      r.is_write ? 'W' : 'R', r.gap_instructions);
        out += line;
    }
    return out;
}

} // namespace rtm
