/**
 * @file
 * Unit tests for the text trace-file reader and replay adapter.
 */

#include <gtest/gtest.h>

#include "trace/trace_file.hh"

namespace rtm
{
namespace
{

TEST(TraceParse, BasicLines)
{
    auto reqs = parseTrace("0 0x40 R 3\n"
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
    auto reqs = parseTrace("# header comment\n"
                           "\n"
                           "   \n"
                           "0 0x10 r 1  # trailing comment\n"
                           "# another\n");
    ASSERT_EQ(reqs.size(), 1u);
    EXPECT_EQ(reqs[0].addr, 0x10u);
}

TEST(TraceParse, LowercaseAccessTypes)
{
    auto reqs = parseTrace("2 0x100 w 5\n3 0x200 r\n");
    ASSERT_EQ(reqs.size(), 2u);
    EXPECT_TRUE(reqs[0].is_write);
    EXPECT_FALSE(reqs[1].is_write);
}

TEST(TraceParseDeathTest, RejectsMalformedLines)
{
    EXPECT_EXIT(parseTrace("0 0x40\n"),
                ::testing::ExitedWithCode(1), "expected");
    EXPECT_EXIT(parseTrace("0 0x40 X\n"),
                ::testing::ExitedWithCode(1), "R or W");
    EXPECT_EXIT(parseTrace("0 zz R\n"),
                ::testing::ExitedWithCode(1), "bad address");
    EXPECT_EXIT(parseTrace("-1 0x40 R\n"),
                ::testing::ExitedWithCode(1), "negative core");
    EXPECT_EXIT(parseTrace("0 0x40 R -2\n"),
                ::testing::ExitedWithCode(1), "negative gap");
}

TEST(TraceParse, ErrorsNameTheLine)
{
    EXPECT_EXIT(parseTrace("0 0x40 R\n0 0x80 Q\n"),
                ::testing::ExitedWithCode(1), "line 2");
}

TEST(TraceFormat, RoundTrips)
{
    std::vector<MemRequest> reqs = {
        {0, 0x1a2b40, false, 12},
        {3, 0x40, true, 0},
    };
    auto parsed = parseTrace(formatTrace(reqs));
    ASSERT_EQ(parsed.size(), reqs.size());
    for (size_t i = 0; i < reqs.size(); ++i) {
        EXPECT_EQ(parsed[i].core, reqs[i].core);
        EXPECT_EQ(parsed[i].addr, reqs[i].addr);
        EXPECT_EQ(parsed[i].is_write, reqs[i].is_write);
        EXPECT_EQ(parsed[i].gap_instructions,
                  reqs[i].gap_instructions);
    }
}

TEST(TraceReplay, LoopsAndCountsWraps)
{
    TraceReplay replay(parseTrace("0 0x40 R\n0 0x80 W\n"));
    EXPECT_EQ(replay.size(), 2u);
    EXPECT_EQ(replay.next().addr, 0x40u);
    EXPECT_EQ(replay.next().addr, 0x80u);
    EXPECT_EQ(replay.wraps(), 1u);
    EXPECT_EQ(replay.next().addr, 0x40u);
    EXPECT_EQ(replay.wraps(), 1u);
    replay.next();
    EXPECT_EQ(replay.wraps(), 2u);
}

TEST(TraceReplayDeathTest, RejectsEmptyTrace)
{
    EXPECT_EXIT(TraceReplay(std::vector<MemRequest>{}),
                ::testing::ExitedWithCode(1), "at least one");
}

TEST(TraceFile, LoadsFromDisk)
{
    std::string path = "/tmp/rtm_trace_test.txt";
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("0 0x40 R 1\n1 0x80 W 2\n", f);
    std::fclose(f);
    auto reqs = loadTraceFile(path);
    ASSERT_EQ(reqs.size(), 2u);
    EXPECT_EQ(reqs[1].core, 1);
    std::remove(path.c_str());
}

TEST(TraceFileDeathTest, MissingFileIsFatal)
{
    EXPECT_EXIT(loadTraceFile("/nonexistent/rtm.trace"),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST(TraceParseChecked, EmptyInputIsOkWithZeroRequests)
{
    TraceParseResult r = parseTraceChecked("");
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.requests.empty());
    EXPECT_EQ(r.parsed_lines, 0);
    EXPECT_EQ(r.skipped_lines, 0);

    TraceParseResult comments =
        parseTraceChecked("# only a comment\n\n   \n");
    EXPECT_TRUE(comments.ok());
    EXPECT_TRUE(comments.requests.empty());
}

TEST(TraceParseChecked, StrictStopsAtFirstBadLine)
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

TEST(TraceParseChecked, LenientSkipsAndKeepsGoing)
{
    TraceParseResult r =
        parseTraceChecked("0 0x40 R\n"
                          "garbage line here\n"
                          "0 zz W\n"
                          "-3 0x10 R\n"
                          "1 0x80 W 7\n",
                          TraceParseMode::Lenient);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.skipped_lines, 3);
    EXPECT_EQ(r.parsed_lines, 2);
    ASSERT_EQ(r.requests.size(), 2u);
    EXPECT_EQ(r.requests[1].addr, 0x80u);
    EXPECT_EQ(r.requests[1].gap_instructions, 7u);
    // Diagnostics name each offending line.
    ASSERT_EQ(r.diagnostics.size(), 3u);
    EXPECT_EQ(r.diagnostics[0].line, 2);
    EXPECT_EQ(r.diagnostics[1].line, 3);
    EXPECT_EQ(r.diagnostics[2].line, 4);
    EXPECT_NE(r.diagnostics[1].message.find("bad address"),
              std::string::npos);
    EXPECT_NE(r.diagnostics[2].message.find("negative core"),
              std::string::npos);
}

TEST(TraceParseChecked, LenientOnAllGarbageYieldsNothing)
{
    TraceParseResult r = parseTraceChecked(
        "not a trace\n\x01\x02\x03\nstill not one\n",
        TraceParseMode::Lenient);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(r.requests.empty());
    EXPECT_EQ(r.parsed_lines, 0);
    EXPECT_EQ(r.skipped_lines,
              static_cast<int>(r.diagnostics.size()));
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

TEST(TraceParseChecked, LoadCheckedReadsCleanFile)
{
    std::string path = "/tmp/rtm_trace_checked_test.txt";
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("0 0x40 R 1\nbroken\n1 0x80 W 2\n", f);
    std::fclose(f);
    TraceParseResult r =
        loadTraceFileChecked(path, TraceParseMode::Lenient);
    EXPECT_EQ(r.parsed_lines, 2);
    EXPECT_EQ(r.skipped_lines, 1);
    ASSERT_EQ(r.requests.size(), 2u);
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
        parseTraceChecked("0 0x40 R\n7 0x80 W\n",
                          TraceParseMode::Strict, 4);
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

TEST(TraceParseDeathTest, FatalLoaderReportsReadError)
{
    EXPECT_EXIT(loadTraceFile("/tmp"),
                ::testing::ExitedWithCode(1), "I/O error");
}

} // namespace
} // namespace rtm
