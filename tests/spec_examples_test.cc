/**
 * @file
 * Round-trips every checked-in JSON spec under examples/specs through
 * the spec parser, normalizer and emitter. A spec that ships with the
 * repo must load without a single diagnostic, survive
 * parse -> emit -> parse as the identity, and expand to a non-empty
 * cell list — catching schema drift the moment a field is renamed.
 * The emitted bytes of every shipped spec are pinned too.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "util/hash.hh"

namespace rtm
{
namespace
{

std::vector<std::string>
exampleSpecPaths()
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::path(RTM_REPO_DIR) / "examples" / "specs";
    std::vector<std::string> paths;
    for (const auto &entry : fs::directory_iterator(dir))
        if (entry.path().extension() == ".json")
            paths.push_back(entry.path().string());
    std::sort(paths.begin(), paths.end());
    return paths;
}

TEST(SpecExamples, DirectoryIsNotEmpty)
{
    EXPECT_FALSE(exampleSpecPaths().empty());
}

TEST(SpecExamples, EveryShippedSpecLoadsCleanly)
{
    for (const std::string &path : exampleSpecPaths()) {
        ExperimentSpec spec;
        std::string diag;
        EXPECT_TRUE(loadExperimentSpec(path, &spec, &diag))
            << path << ":\n" << diag;
        EXPECT_TRUE(diag.empty()) << path << ":\n" << diag;
    }
}

TEST(SpecExamples, ParseEmitParseIsIdentity)
{
    for (const std::string &path : exampleSpecPaths()) {
        ExperimentSpec spec;
        std::string diag;
        ASSERT_TRUE(loadExperimentSpec(path, &spec, &diag))
            << path << ":\n" << diag;

        const JsonValue emitted = experimentSpecToJson(spec);
        ExperimentSpec reparsed;
        ASSERT_TRUE(
            experimentSpecFromJson(emitted, &reparsed, &diag))
            << path << ":\n" << diag;
        EXPECT_TRUE(spec == reparsed) << path;
        EXPECT_EQ(emitted.dump(),
                  experimentSpecToJson(reparsed).dump())
            << path;
        EXPECT_EQ(experimentSpecHash(spec),
                  experimentSpecHash(reparsed))
            << path;
    }
}

/**
 * SHA-256 of each spec's compact emitted JSON. The resume-journal
 * identity is a hash of these bytes, so a changed key order or number
 * format would orphan every existing journal while every round-trip
 * test above still passes. A new example spec needs its pin here.
 */
TEST(SpecExamples, EmittedBytesArePinned)
{
    const std::map<std::string, std::string> pins = {
        {"(default)", "499e2c5962b5aa323365d1226347ac13"
                      "d9f8f65d7137418e7ac091b696946879"},
        {"campaign.json", "98851b4fcf93f9a300d27a6f35637cec"
                          "f8d92c296bf996f874aef1ec3dfc1b2f"},
        {"fig16.json", "974294414a76ca504bb52ae2e9ab3c82"
                       "ea68626fc7efae5777960fc0d919505c"},
        {"mc_fast.json", "c6606802a75c2abbbe4aed47763e1bc0"
                         "2d5367663f7eceaf864835d9e96f64cb"},
        {"placement_sweep.json", "707e51247ff46b25d491f9a4e133b913"
                                 "974513c20e182a9e1e80feb201073b61"},
        {"protection_sweep.json", "e41868bd9847ea849bba15eda0e8125c"
                                  "c7821ee2775edd8a7ec76a814fa84067"},
        {"resilient_campaign.json", "0b992d20fd6e7c2250fc2de56c9fb5c1"
                                    "7a09d719682a15f53851ed006bc6aed6"},
        {"shiftcode_sweep.json", "10cefe78d8fc2426df866c669cb0d646"
                                 "7a1b10f3b7e850e0c7725ace2db19664"},
        {"stress.json", "d07fbe1197032dddc3b691af0c963a99"
                        "b7a6949805e3fde7dd84edc152e326dd"},
    };
    auto digest = [](const ExperimentSpec &spec) {
        const std::string text = experimentSpecToJson(spec).dump(0);
        return sha256Hex(text.data(), text.size());
    };
    EXPECT_EQ(digest(ExperimentSpec{}), pins.at("(default)"));
    for (const std::string &path : exampleSpecPaths()) {
        const std::string name =
            std::filesystem::path(path).filename().string();
        ExperimentSpec spec;
        std::string diag;
        ASSERT_TRUE(loadExperimentSpec(path, &spec, &diag))
            << path << ":\n" << diag;
        ASSERT_EQ(pins.count(name), 1u) << "no pin for " << name;
        EXPECT_EQ(digest(spec), pins.at(name)) << name;
    }
}

TEST(SpecExamples, EveryShippedSpecExpandsToCells)
{
    for (const std::string &path : exampleSpecPaths()) {
        ExperimentSpec spec;
        std::string diag;
        ASSERT_TRUE(loadExperimentSpec(path, &spec, &diag))
            << path << ":\n" << diag;
        EXPECT_FALSE(expandCells(spec).empty()) << path;
    }
}

} // anonymous namespace
} // namespace rtm
