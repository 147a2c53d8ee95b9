/**
 * @file
 * Unit tests for the text trace-file reader.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "trace/trace_file.hh"
#include "util/hash.hh"

namespace rtm
{
namespace
{

/** The requests of a trace that must parse cleanly. */
std::vector<MemRequest>
parseClean(const std::string &text)
{
    TraceParseResult r = parseTraceChecked(text);
    EXPECT_TRUE(r.ok()) << r.diagnostics.front().message;
    return r.requests;
}

/** Write `text` to `path` for a loader test. */
void
writeFile(const std::string &path, const char *text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(text, f);
    std::fclose(f);
}

TEST(TraceParse, BasicLines)
{
    auto reqs = parseClean("0 0x40 R 3\n"
                           "1 128 W\n");
    ASSERT_EQ(reqs.size(), 2u);
    EXPECT_EQ(reqs[0].core, 0);
    EXPECT_EQ(reqs[0].addr, 0x40u);
    EXPECT_FALSE(reqs[0].is_write);
    EXPECT_EQ(reqs[0].gap_instructions, 3u);
    EXPECT_EQ(reqs[1].core, 1);
    EXPECT_EQ(reqs[1].addr, 128u);
    EXPECT_TRUE(reqs[1].is_write);
    EXPECT_EQ(reqs[1].gap_instructions, 0u);
}

TEST(TraceParse, CommentsAndBlanksIgnored)
{
    auto reqs = parseClean("# header comment\n"
                           "\n"
                           "   \n"
                           "0 0x10 r 1  # trailing comment\n"
                           "# another\n");
    ASSERT_EQ(reqs.size(), 1u);
    EXPECT_EQ(reqs[0].addr, 0x10u);
}

TEST(TraceParse, LowercaseAccessTypes)
{
    auto reqs = parseClean("2 0x100 w 5\n3 0x200 r\n");
    ASSERT_EQ(reqs.size(), 2u);
    EXPECT_TRUE(reqs[0].is_write);
    EXPECT_FALSE(reqs[1].is_write);
}

/** The one diagnostic of a trace that must fail at `line`. */
std::string
parseError(const std::string &text, int line)
{
    TraceParseResult r = parseTraceChecked(text);
    EXPECT_FALSE(r.ok()) << text;
    if (r.ok())
        return "";
    EXPECT_EQ(r.diagnostics.size(), 1u) << text;
    EXPECT_EQ(r.diagnostics[0].line, line) << text;
    return r.diagnostics[0].message;
}

TEST(TraceParseChecked, RejectsMalformedLines)
{
    EXPECT_EQ(parseError("0 0x40\n", 1),
              "expected '<core> <addr> <R|W> [gap]'");
    EXPECT_EQ(parseError("0 0x40 X\n", 1),
              "access type must be R or W, got 'X'");
    EXPECT_EQ(parseError("0 zz R\n", 1), "bad address 'zz'");
    EXPECT_EQ(parseError("-1 0x40 R\n", 1), "negative core id");
    EXPECT_EQ(parseError("0 0x40 R -2\n", 1), "negative gap");
}

TEST(TraceParseChecked, ErrorsNameTheLine)
{
    EXPECT_EQ(parseError("0 0x40 R\n0 0x80 Q\n", 2),
              "access type must be R or W, got 'Q'");
}

TEST(TraceFormat, RoundTrips)
{
    std::vector<MemRequest> reqs = {
        {0, 0x1a2b40, false, 12},
        {3, 0x40, true, 0},
    };
    auto parsed = parseClean(formatTrace(reqs));
    ASSERT_EQ(parsed.size(), reqs.size());
    for (size_t i = 0; i < reqs.size(); ++i) {
        EXPECT_EQ(parsed[i].core, reqs[i].core);
        EXPECT_EQ(parsed[i].addr, reqs[i].addr);
        EXPECT_EQ(parsed[i].is_write, reqs[i].is_write);
        EXPECT_EQ(parsed[i].gap_instructions,
                  reqs[i].gap_instructions);
    }
}

TEST(TraceFile, LoadsFromDiskAndHashesTheBytes)
{
    const std::string path =
        std::string(::testing::TempDir()) + "rtm_trace_test.txt";
    const char text[] = "0 0x40 R 1\n1 0x80 W 2\n";
    writeFile(path, text);
    TraceParseResult r = loadTraceFileChecked(path);
    EXPECT_TRUE(r.ok());
    ASSERT_EQ(r.requests.size(), 2u);
    EXPECT_EQ(r.requests[1].core, 1);
    EXPECT_EQ(r.sha256, sha256Hex(text, sizeof(text) - 1));
    std::remove(path.c_str());
}

TEST(TraceParseChecked, EmptyInputIsOkWithZeroRequests)
{
    TraceParseResult r = parseTraceChecked("");
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.requests.empty());

    TraceParseResult comments =
        parseTraceChecked("# only a comment\n\n   \n");
    EXPECT_TRUE(comments.ok());
    EXPECT_TRUE(comments.requests.empty());
}

TEST(TraceParseChecked, StopsAtFirstBadLine)
{
    TraceParseResult r = parseTraceChecked("0 0x40 R\n"
                                           "0 0x4\n" // truncated
                                           "1 0x80 W\n");
    EXPECT_FALSE(r.ok());
    ASSERT_EQ(r.diagnostics.size(), 1u);
    EXPECT_EQ(r.diagnostics[0].line, 2);
    EXPECT_NE(r.diagnostics[0].message.find("expected"),
              std::string::npos);
    // Everything before the bad line is still returned.
    ASSERT_EQ(r.requests.size(), 1u);
    EXPECT_EQ(r.requests[0].addr, 0x40u);
}

TEST(TraceParseChecked, MissingFileYieldsDiagnostic)
{
    TraceParseResult r =
        loadTraceFileChecked("/nonexistent/rtm.trace");
    EXPECT_FALSE(r.ok());
    ASSERT_EQ(r.diagnostics.size(), 1u);
    EXPECT_EQ(r.diagnostics[0].line, 0);
    EXPECT_NE(r.diagnostics[0].message.find("cannot open"),
              std::string::npos);
}

TEST(TraceParseChecked, LoadCheckedStopsAtTheBadLine)
{
    const std::string path =
        std::string(::testing::TempDir()) + "rtm_trace_checked_test.txt";
    writeFile(path, "0 0x40 R 1\nbroken\n1 0x80 W 2\n");
    TraceParseResult r = loadTraceFileChecked(path);
    EXPECT_FALSE(r.ok());
    ASSERT_EQ(r.diagnostics.size(), 1u);
    EXPECT_EQ(r.diagnostics[0].line, 2);
    EXPECT_EQ(r.requests.size(), 1u);
    std::remove(path.c_str());
}

// A mid-read I/O failure (EIO, disk pulled, NFS hiccup) must surface
// as a distinct whole-file diagnostic, never as an "empty trace".
// Reading a directory is the portable way to make the stream's read
// path fail after a successful open.
TEST(TraceParseChecked, ReadErrorIsNotAnEmptyTrace)
{
    TraceParseResult r = loadTraceFileChecked("/tmp");
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(r.requests.empty());
    ASSERT_EQ(r.diagnostics.size(), 1u);
    EXPECT_EQ(r.diagnostics[0].line, 0);
    EXPECT_NE(r.diagnostics[0].message.find("I/O error"),
              std::string::npos);
}

TEST(TraceParseChecked, CoreIdBeyondTheCoreCountIsRejected)
{
    TraceParseResult r =
        parseTraceChecked("0 0x40 R\n7 0x80 W\n", 4);
    EXPECT_FALSE(r.ok());
    ASSERT_EQ(r.diagnostics.size(), 1u);
    EXPECT_EQ(r.diagnostics[0].line, 2);
    EXPECT_EQ(r.diagnostics[0].message,
              "core id 7 out of range (4 cores)");
    ASSERT_EQ(r.requests.size(), 1u);
    // Without a core count the same trace parses.
    EXPECT_TRUE(parseTraceChecked("0 0x40 R\n7 0x80 W\n").ok());
}

TEST(TraceParseChecked, CoreIdIsNeverTruncated)
{
    // 2^32 used to wrap to core 0.
    TraceParseResult r = parseTraceChecked("4294967296 0x40 R\n");
    EXPECT_FALSE(r.ok());
    ASSERT_EQ(r.diagnostics.size(), 1u);
    EXPECT_EQ(r.diagnostics[0].line, 1);
    EXPECT_EQ(r.diagnostics[0].message,
              "core id 4294967296 out of range");
    EXPECT_TRUE(r.requests.empty());
}

TEST(TraceParseChecked, GapIsNeverTruncated)
{
    TraceParseResult r = parseTraceChecked("0 0x40 R 4294967295\n"
                                           "0 0x80 R 4294967296\n");
    EXPECT_FALSE(r.ok());
    ASSERT_EQ(r.diagnostics.size(), 1u);
    EXPECT_EQ(r.diagnostics[0].line, 2);
    EXPECT_EQ(r.diagnostics[0].message, "gap 4294967296 out of range");
    ASSERT_EQ(r.requests.size(), 1u);
    EXPECT_EQ(r.requests[0].gap_instructions, 4294967295u);
}

} // namespace
} // namespace rtm
