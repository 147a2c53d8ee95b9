/**
 * @file
 * Serde-layer tests: JSON document model + parser/emitter
 * round-trips, number fidelity, SpecReader typed binding and
 * diagnostics, CliFlags grammar and error handling, splitCsv.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "util/serde.hh"

namespace rtm
{
namespace
{

JsonValue
parseOk(const std::string &text)
{
    JsonValue v;
    std::string err;
    EXPECT_TRUE(JsonValue::parse(text, &v, &err)) << err;
    return v;
}

TEST(Json, ParsesEveryValueKind)
{
    JsonValue v = parseOk(
        "{\"n\": null, \"t\": true, \"f\": false, \"i\": 42,"
        " \"d\": -1.5e3, \"s\": \"hi\\n\\\"there\\\"\","
        " \"a\": [1, 2, 3], \"o\": {\"k\": \"v\"}}");
    ASSERT_TRUE(v.isObject());
    EXPECT_TRUE(v.find("n")->isNull());
    EXPECT_TRUE(v.find("t")->asBool());
    EXPECT_FALSE(v.find("f")->asBool(true));
    EXPECT_EQ(v.find("i")->asU64(), 42u);
    EXPECT_EQ(v.find("d")->asDouble(), -1500.0);
    EXPECT_EQ(v.find("s")->asString(), "hi\n\"there\"");
    ASSERT_TRUE(v.find("a")->isArray());
    EXPECT_EQ(v.find("a")->size(), 3u);
    EXPECT_EQ(v.find("a")->at(2).asInt(), 3);
    EXPECT_EQ(v.find("o")->find("k")->asString(), "v");
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, MemberOrderIsPreservedThroughRoundTrip)
{
    JsonValue v = JsonValue::object();
    v.set("zeta", 1);
    v.set("alpha", 2);
    v.set("mid", JsonValue::array());
    std::string text = v.dump();
    EXPECT_LT(text.find("zeta"), text.find("alpha"));
    EXPECT_LT(text.find("alpha"), text.find("mid"));

    JsonValue back = parseOk(text);
    EXPECT_EQ(back, v);
    // Overwrite keeps the original slot.
    v.set("zeta", 9);
    EXPECT_EQ(v.members().front().first, "zeta");
    EXPECT_EQ(v.find("zeta")->asInt(), 9);
}

TEST(Json, NumbersRoundTripExactly)
{
    const double cases[] = {0.0,     -0.0,   1.0,    42.0,
                            0.1,     1e300,  -2.5e-7, 83e6,
                            1.0 / 3, 0x7a5e, 1e-9,   0.34e-9};
    for (double d : cases) {
        JsonValue v(d);
        JsonValue back = parseOk(v.dump(0));
        EXPECT_EQ(back.asDouble(), d) << v.dump(0);
    }
    // 2^53 boundary: every config integer in this repo is exact.
    uint64_t big = (1ull << 53) - 1;
    EXPECT_EQ(parseOk(JsonValue(big).dump(0)).asU64(), big);
}

TEST(Json, CompactAndPrettyDumpsParseTheSame)
{
    JsonValue v = parseOk(
        "{\"a\": [1, {\"b\": [true, null]}], \"c\": \"x\"}");
    EXPECT_EQ(parseOk(v.dump(0)), v);
    EXPECT_EQ(parseOk(v.dump(2)), v);
    EXPECT_EQ(parseOk(v.dump(4)), v);
    // Compact form has no newlines; pretty form does.
    EXPECT_EQ(v.dump(0).find('\n'), std::string::npos);
    EXPECT_NE(v.dump(2).find('\n'), std::string::npos);
}

TEST(Json, ParseErrorsCarryLineAndColumn)
{
    JsonValue v;
    std::string err;
    EXPECT_FALSE(JsonValue::parse("{\n  \"a\": nope\n}", &v, &err));
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;

    err.clear();
    EXPECT_FALSE(JsonValue::parse("{\"a\": 1} trailing", &v, &err));
    EXPECT_FALSE(err.empty());

    err.clear();
    EXPECT_FALSE(JsonValue::parse("", &v, &err));
    EXPECT_FALSE(err.empty());

    err.clear();
    EXPECT_FALSE(JsonValue::parse("{\"a\": [1, 2}", &v, &err));
    EXPECT_FALSE(err.empty());
}

TEST(Json, FileRoundTrip)
{
    JsonValue v = JsonValue::object();
    v.set("name", "file-test");
    JsonValue arr = JsonValue::array();
    arr.push(1);
    arr.push("two");
    v.set("vals", arr);

    const std::string path = "serde_test_roundtrip.json";
    ASSERT_TRUE(saveJsonFile(path, v));
    JsonValue back;
    std::string err;
    ASSERT_TRUE(loadJsonFile(path, &back, &err)) << err;
    EXPECT_EQ(back, v);
    std::remove(path.c_str());

    EXPECT_FALSE(loadJsonFile("no/such/dir/x.json", &back, &err));
    EXPECT_NE(err.find("no/such/dir/x.json"), std::string::npos);
    EXPECT_FALSE(saveJsonFile("/nonexistent/dir/x.json", v));
}

TEST(SpecReader, BindsTypedFieldsAndKeepsDefaults)
{
    JsonValue v = parseOk(
        "{\"b\": true, \"u\": 6000, \"i\": -3, \"d\": 2.5,"
        " \"s\": \"hello\"}");
    std::string diag;
    SpecReader r(v, "spec", &diag);

    bool b = false;
    uint64_t u = 1;
    int i = 0;
    double d = 0.0;
    std::string s = "default";
    std::string untouched = "keep";
    r.readBool("b", &b);
    r.readU64("u", &u);
    r.readInt("i", &i);
    r.readDouble("d", &d);
    r.readString("s", &s);
    r.readString("absent", &untouched);
    EXPECT_TRUE(r.ok()) << diag;
    EXPECT_TRUE(b);
    EXPECT_EQ(u, 6000u);
    EXPECT_EQ(i, -3);
    EXPECT_EQ(d, 2.5);
    EXPECT_EQ(s, "hello");
    EXPECT_EQ(untouched, "keep");
    EXPECT_TRUE(r.has("b"));
    EXPECT_FALSE(r.has("absent"));
}

TEST(SpecReader, AccumulatesDottedPathDiagnostics)
{
    JsonValue v = parseOk(
        "{\"requests\": \"lots\", \"neg\": -5, \"obj\": 3}");
    std::string diag;
    SpecReader r(v, "matrix", &diag);

    uint64_t requests = 0, neg = 0;
    r.readU64("requests", &requests);
    r.readU64("neg", &neg);
    EXPECT_EQ(r.child("obj", JsonType::Object), nullptr);
    EXPECT_FALSE(r.ok());

    // One diagnostic per problem, each carrying the dotted path.
    EXPECT_NE(diag.find("matrix.requests"), std::string::npos)
        << diag;
    EXPECT_NE(diag.find("matrix.neg"), std::string::npos) << diag;
    EXPECT_NE(diag.find("matrix.obj"), std::string::npos) << diag;
    // Defaults untouched on mismatch.
    EXPECT_EQ(requests, 0u);
    EXPECT_EQ(neg, 0u);
}

TEST(SpecReader, IntegerReadsRejectFractionsAndOutOfRange)
{
    JsonValue v = parseOk(
        "{\"frac\": 2.5, \"big\": 1e10, \"int_min\": -2147483648,"
        " \"huge\": 1e30, \"max\": 9007199254740992,"
        " \"over\": 9007199254740994}");
    std::string diag;
    SpecReader r(v, "s", &diag);

    // int: fractions and values outside int leave the default.
    int i = 7;
    r.readInt("frac", &i);
    EXPECT_EQ(i, 7);
    r.readInt("big", &i);
    EXPECT_EQ(i, 7);
    r.readInt("int_min", &i);
    EXPECT_EQ(i, std::numeric_limits<int>::min());

    // u64: fractions and values above 2^53 (no longer exact as a
    // JSON double) leave the default; 2^53 itself is accepted.
    uint64_t u = 7;
    r.readU64("frac", &u);
    EXPECT_EQ(u, 7u);
    r.readU64("huge", &u);
    EXPECT_EQ(u, 7u);
    r.readU64("over", &u);
    EXPECT_EQ(u, 7u);
    r.readU64("max", &u);
    EXPECT_EQ(u, 9007199254740992u);

    // One dotted-path diagnostic per rejected read.
    for (const char *key : {"s.frac", "s.big", "s.huge", "s.over"})
        EXPECT_NE(diag.find(key), std::string::npos) << diag;
    EXPECT_NE(diag.find("expected an integer"), std::string::npos)
        << diag;
    EXPECT_NE(diag.find("out of range"), std::string::npos) << diag;
    EXPECT_EQ(diag.find("s.int_min"), std::string::npos) << diag;
    EXPECT_EQ(diag.find("s.max"), std::string::npos) << diag;
}

TEST(SpecReader, RejectsUnknownKeysAndNonObjects)
{
    JsonValue v = parseOk("{\"requests\": 1, \"reqests\": 2}");
    std::string diag;
    SpecReader r(v, "matrix", &diag);
    uint64_t requests = 0;
    r.readU64("requests", &requests);
    r.rejectUnknownKeys({"requests"});
    EXPECT_FALSE(r.ok());
    EXPECT_NE(diag.find("reqests"), std::string::npos) << diag;

    std::string diag2;
    SpecReader broken(JsonValue(3.0), "top", &diag2);
    EXPECT_FALSE(broken.ok());
    EXPECT_NE(diag2.find("top"), std::string::npos) << diag2;
    uint64_t x = 7;
    broken.readU64("anything", &x); // no-op, no crash
    EXPECT_EQ(x, 7u);
}

CliFlags
tryParseArgs(std::vector<const char *> argv,
             const std::vector<std::string> &allowed, bool *ok,
             std::string *err)
{
    CliFlags flags;
    *ok = CliFlags::tryParse(static_cast<int>(argv.size()),
                             const_cast<char **>(argv.data()), 1,
                             allowed, &flags, err);
    return flags;
}

TEST(CliFlags, ParsesPairsWithTypedGetters)
{
    bool ok = false;
    std::string err;
    CliFlags f = tryParseArgs(
        {"tool", "--requests", "6000", "--scale", "2.5", "--name",
         "x", "--neg", "-3", "--intensity", "83e6", "--max",
         "18446744073709551615", "--min", "-2147483648"},
        {}, &ok, &err);
    ASSERT_TRUE(ok) << err;
    EXPECT_TRUE(f.has("requests"));
    EXPECT_EQ(f.getU64("requests", 0), 6000u);
    EXPECT_EQ(f.getDouble("scale", 0.0), 2.5);
    EXPECT_EQ(f.get("name", ""), "x");
    EXPECT_EQ(f.getInt("neg", 0), -3);
    EXPECT_EQ(f.getDouble("intensity", 0.0), 83e6);
    EXPECT_EQ(f.getU64("max", 0),
              std::numeric_limits<uint64_t>::max());
    EXPECT_EQ(f.getInt("min", 0), std::numeric_limits<int>::min());
    EXPECT_EQ(f.get("absent", "fb"), "fb");
    EXPECT_EQ(f.getU64("absent", 9), 9u);
}

TEST(CliFlags, ReportsStrayMissingAndUnknown)
{
    bool ok = true;
    std::string err;

    tryParseArgs({"tool", "oops"}, {}, &ok, &err);
    EXPECT_FALSE(ok);
    EXPECT_EQ(err, "expected --flag, got 'oops'");

    tryParseArgs({"tool", "--requests"}, {}, &ok, &err);
    EXPECT_FALSE(ok);
    EXPECT_EQ(err, "missing value for '--requests'");

    tryParseArgs({"tool", "--bogus", "1"}, {"requests", "seed"},
                 &ok, &err);
    EXPECT_FALSE(ok);
    EXPECT_NE(err.find("unknown flag '--bogus'"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("--requests"), std::string::npos) << err;
    EXPECT_NE(err.find("--seed"), std::string::npos) << err;
}

/** `--requests <value>`, parsed. */
CliFlags
requestsFlag(const char *value)
{
    bool ok = false;
    std::string err;
    CliFlags f =
        tryParseArgs({"tool", "--requests", value}, {}, &ok, &err);
    EXPECT_TRUE(ok) << err;
    return f;
}

/** The message pattern naming --requests and `value`. */
std::string
badRequestsPattern(const char *value)
{
    std::string re = "'";
    for (const char *c = value; *c; ++c) {
        if (std::strchr(".+*?()[]{}|^$\\", *c))
            re += '\\';
        re += *c;
    }
    return re + "' for '--requests'";
}

TEST(CliFlags, MalformedNumbersExitTwoNamingFlagAndValue)
{
    // Each of these used to parse silently: "abc" as 0, "1e3" as 1,
    // "-5" as 2^64 - 5.
    for (const char *v : {"abc", "1e3", "-5", "+5", "", " 7", "7 ",
                          "18446744073709551616"})
        EXPECT_EXIT(requestsFlag(v).getU64("requests", 0),
                    ::testing::ExitedWithCode(2),
                    badRequestsPattern(v))
            << v;
    for (const char *v : {"x", "1.5", "2147483648", "-2147483649"})
        EXPECT_EXIT(requestsFlag(v).getInt("requests", 0),
                    ::testing::ExitedWithCode(2),
                    badRequestsPattern(v))
            << v;
    for (const char *v : {"abc", "2.5x", "nan", "inf", "1e400"})
        EXPECT_EXIT(requestsFlag(v).getDouble("requests", 0.0),
                    ::testing::ExitedWithCode(2),
                    badRequestsPattern(v))
            << v;
}

TEST(CliFlags, EmptyAllowedAcceptsAnything)
{
    bool ok = false;
    std::string err;
    CliFlags f =
        tryParseArgs({"tool", "--whatever", "v"}, {}, &ok, &err);
    EXPECT_TRUE(ok) << err;
    EXPECT_EQ(f.get("whatever", ""), "v");
}

TEST(SplitCsv, MatchesHistoricalSplitListSemantics)
{
    EXPECT_EQ(splitCsv("a,b,c"),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(splitCsv("swaptions"),
              (std::vector<std::string>{"swaptions"}));
    EXPECT_EQ(splitCsv(""), std::vector<std::string>{});
    EXPECT_EQ(splitCsv("a,,b,"),
              (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(splitCsv(",x"), (std::vector<std::string>{"x"}));
}

} // namespace
} // namespace rtm
