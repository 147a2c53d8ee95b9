/**
 * @file
 * ExperimentSpec tests: JSON round-trips (parse -> expand -> emit ->
 * parse is the identity, including every defaulted field), cell-list
 * expansion, malformed-spec diagnostics, the engine's scheduling
 * contract, and the unified result export.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "device/fault_scenario.hh"
#include "sim/experiment.hh"
#include "trace/workload.hh"
#include "util/parallel.hh"
#include "util/serde.hh"
#include "util/telemetry.hh"

namespace rtm
{
namespace
{

ExperimentSpec
parseSpecOk(const std::string &text)
{
    JsonValue doc;
    std::string err;
    EXPECT_TRUE(JsonValue::parse(text, &doc, &err)) << err;
    ExperimentSpec spec;
    std::string diag;
    EXPECT_TRUE(experimentSpecFromJson(doc, &spec, &diag)) << diag;
    return spec;
}

std::string
parseSpecDiag(const std::string &text)
{
    JsonValue doc;
    std::string err;
    EXPECT_TRUE(JsonValue::parse(text, &doc, &err)) << err;
    ExperimentSpec spec;
    std::string diag;
    EXPECT_FALSE(experimentSpecFromJson(doc, &spec, &diag));
    EXPECT_FALSE(diag.empty());
    return diag;
}

TEST(ExperimentSpec, DefaultsNormalizeToFullCatalogues)
{
    ExperimentSpec spec;
    normalizeExperimentSpec(&spec);
    EXPECT_EQ(spec.matrix.workloads.size(),
              parsecProfiles().size());
    EXPECT_EQ(spec.matrix.options.size(),
              standardLlcOptions().size());
    EXPECT_EQ(spec.campaign.scenarios.size(),
              standardScenarios().size());
    EXPECT_EQ(spec.campaign.workloads,
              (std::vector<std::string>{"swaptions", "canneal",
                                        "ferret"}));
    // Normalization is idempotent.
    ExperimentSpec again = spec;
    normalizeExperimentSpec(&again);
    EXPECT_EQ(again, spec);
}

TEST(ExperimentSpec, EmitParseIsIdentityOnDefaults)
{
    ExperimentSpec spec;
    normalizeExperimentSpec(&spec);
    JsonValue doc = experimentSpecToJson(spec);
    ExperimentSpec back;
    std::string diag;
    ASSERT_TRUE(experimentSpecFromJson(doc, &back, &diag)) << diag;
    EXPECT_EQ(back, spec);
    // And again through text, with the cell list identical too.
    JsonValue doc2;
    std::string err;
    ASSERT_TRUE(JsonValue::parse(doc.dump(), &doc2, &err)) << err;
    ExperimentSpec back2;
    ASSERT_TRUE(experimentSpecFromJson(doc2, &back2, &diag))
        << diag;
    EXPECT_EQ(back2, spec);
    EXPECT_EQ(expandCells(back2), expandCells(spec));
}

TEST(ExperimentSpec, RoundTripsEverySection)
{
    ExperimentSpec spec;
    spec.name = "round-trip";
    spec.matrix.requests = 1234;
    spec.matrix.warmup = 77;
    spec.matrix.divisor = 8;
    spec.matrix.seed = 99;
    spec.matrix.workloads = {"canneal", "ferret"};
    spec.matrix.options = {
        {"RM adaptive", MemTech::Racetrack,
         Scheme::PeccSAdaptive},
        {"SRAM", MemTech::SRAM, Scheme::Baseline},
    };
    spec.campaign.enabled = true;
    spec.campaign.config.accesses_per_cell = 512;
    spec.campaign.config.seed = 0xabcd;
    spec.campaign.config.scale = 1500.0;
    spec.campaign.config.pecc = {4, 8, 1, PeccVariant::Standard};
    spec.campaign.config.recovery.retry_budget = 3;
    spec.campaign.config.recovery.allow_scrub = false;
    spec.campaign.config.bank_due_prob = 0.05;
    spec.campaign.config.group_retry_budget = 1;
    spec.campaign.config.telemetry_ring_capacity = 4096;
    ScenarioSpec burst;
    burst.kind = ScenarioKind::Burst;
    burst.name = "hot-burst";
    burst.burst_period = 32;
    burst.burst_len = 4;
    burst.burst_multiplier = 80.0;
    spec.campaign.scenarios = {burst};
    spec.campaign.workloads = {"ferret"};
    spec.stress.enabled = true;
    spec.stress.scheme = "pecc-o";
    spec.stress.scale = 750.0;
    spec.stress.ops = 5000;
    spec.stress.lseg = 6;
    spec.stress.seed = 3;
    spec.metrics_path = "m.json";
    spec.trace_path = "t.json";
    spec.output_path = "o.json";
    normalizeExperimentSpec(&spec);

    JsonValue doc = experimentSpecToJson(spec);
    ExperimentSpec back;
    std::string diag;
    ASSERT_TRUE(experimentSpecFromJson(doc, &back, &diag)) << diag;
    EXPECT_EQ(back, spec);
    EXPECT_EQ(expandCells(back), expandCells(spec));
    // Emit of the parsed spec is byte-stable (deterministic order).
    EXPECT_EQ(experimentSpecToJson(back).dump(), doc.dump());
}

TEST(ExperimentSpec, ExpandsCellsInScheduleOrder)
{
    ExperimentSpec spec;
    spec.matrix.workloads = {"canneal", "ferret"};
    spec.matrix.options = {
        {"SRAM", MemTech::SRAM, Scheme::Baseline},
        {"RM", MemTech::Racetrack, Scheme::PeccSAdaptive},
    };
    spec.campaign.enabled = true;
    spec.campaign.workloads = {"swaptions"};
    spec.stress.enabled = true;
    normalizeExperimentSpec(&spec);

    auto cells = expandCells(spec);
    const size_t n_campaign = spec.campaign.scenarios.size();
    ASSERT_EQ(cells.size(), 4u + n_campaign + 1u);

    // Matrix first, workload-major.
    EXPECT_EQ(cells[0].kind, ExperimentCell::Kind::Matrix);
    EXPECT_EQ(cells[0].workload, "canneal");
    EXPECT_EQ(cells[0].option.label, "SRAM");
    EXPECT_EQ(cells[1].workload, "canneal");
    EXPECT_EQ(cells[1].option.label, "RM");
    EXPECT_EQ(cells[2].workload, "ferret");
    EXPECT_EQ(cells[3].local_index, 3u);

    // Campaign next, scenario-major.
    for (size_t i = 0; i < n_campaign; ++i) {
        const ExperimentCell &c = cells[4 + i];
        EXPECT_EQ(c.kind, ExperimentCell::Kind::Campaign);
        EXPECT_EQ(c.local_index, i);
        EXPECT_EQ(c.workload, "swaptions");
        EXPECT_EQ(c.scenario.name,
                  spec.campaign.scenarios[i].name);
        EXPECT_FALSE(c.label().empty());
    }

    // Stress last.
    EXPECT_EQ(cells.back().kind, ExperimentCell::Kind::Stress);

    // Disabled sections expand to nothing.
    spec.matrix.enabled = false;
    spec.campaign.enabled = false;
    spec.stress.enabled = false;
    EXPECT_TRUE(expandCells(spec).empty());
}

TEST(ExperimentSpec, RunSchedulesExactlyTheExpandedCells)
{
    // expandCells is the one description of a run's cells: with all
    // four sections enabled, runExperiment's outcomes are exactly its
    // cells, label for label, in order.
    ExperimentSpec spec;
    spec.matrix.requests = 1000;
    spec.matrix.warmup = 100;
    spec.matrix.divisor = 32;
    spec.matrix.workloads = {"canneal", "ferret"};
    spec.matrix.options = {
        {"SRAM", MemTech::SRAM, Scheme::Baseline},
        {"RM", MemTech::Racetrack, Scheme::PeccSAdaptive},
    };
    spec.campaign.enabled = true;
    spec.campaign.config.accesses_per_cell = 200;
    spec.campaign.config.bank_frames = 128;
    const std::vector<ScenarioSpec> scenarios = standardScenarios();
    spec.campaign.scenarios = {scenarios[0], scenarios[1]};
    spec.campaign.workloads = {"swaptions", "canneal"};
    spec.stress.enabled = true;
    spec.stress.ops = 500;
    spec.montecarlo.enabled = true;
    spec.montecarlo.trials = 2000;

    const std::vector<ExperimentCell> cells = expandCells(spec);
    ASSERT_EQ(cells.size(), 4u + 4u + 1u + 1u);
    ExperimentResult res = runExperiment(spec);
    ASSERT_TRUE(res.complete());
    ASSERT_EQ(res.cells, cells.size());
    ASSERT_EQ(res.outcomes.size(), cells.size());
    for (size_t i = 0; i < cells.size(); ++i)
        EXPECT_EQ(res.outcomes[i].label, cells[i].label()) << i;
    EXPECT_EQ(res.outcomes.front().label, "canneal/SRAM");
    EXPECT_EQ(res.outcomes[4].label,
              scenarios[0].name + "/swaptions");
    EXPECT_EQ(res.outcomes[8].label, "stress");
    EXPECT_EQ(res.outcomes[9].label, "montecarlo");
    EXPECT_EQ(res.ok_cells, cells.size());
}

TEST(ExperimentSpec, ParsesShortcutsAndPartialDocuments)
{
    // A minimal document inherits every default.
    ExperimentSpec minimal = parseSpecOk("{}");
    ExperimentSpec def;
    normalizeExperimentSpec(&def);
    EXPECT_EQ(minimal, def);

    // Option/scenario shortcuts splice the catalogues.
    ExperimentSpec spec = parseSpecOk(
        "{\"matrix\": {\"requests\": 4000,"
        "  \"workloads\": [\"canneal\"],"
        "  \"options\": [\"racetrack\"]},"
        " \"campaign\": {\"enabled\": true,"
        "  \"scenarios\": [\"standard\"]}}");
    EXPECT_EQ(spec.matrix.requests, 4000u);
    // Absent warmup follows the rtmsim requests/10 convention.
    EXPECT_EQ(spec.matrix.warmup, 400u);
    EXPECT_EQ(spec.matrix.options.size(),
              racetrackSchemeOptions().size());
    EXPECT_EQ(spec.campaign.scenarios.size(),
              standardScenarios().size());

    ExperimentSpec std_opt = parseSpecOk(
        "{\"matrix\": {\"options\": [\"standard\"]}}");
    EXPECT_EQ(std_opt.matrix.options.size(),
              standardLlcOptions().size());
}

TEST(ExperimentSpec, MalformedSpecsProduceActionableDiagnostics)
{
    // Wrong type, with the dotted path and both type names.
    std::string diag = parseSpecDiag(
        "{\"matrix\": {\"requests\": \"lots\"}}");
    EXPECT_NE(diag.find("matrix.requests"), std::string::npos)
        << diag;
    EXPECT_NE(diag.find("number"), std::string::npos) << diag;
    EXPECT_NE(diag.find("string"), std::string::npos) << diag;

    // Typo'd key is caught, not silently ignored.
    diag = parseSpecDiag("{\"matrix\": {\"reqests\": 5}}");
    EXPECT_NE(diag.find("reqests"), std::string::npos) << diag;

    // Unknown workload / tech / scheme / scenario / stress tokens.
    diag = parseSpecDiag(
        "{\"matrix\": {\"workloads\": [\"notaworkload\"]}}");
    EXPECT_NE(diag.find("notaworkload"), std::string::npos) << diag;
    diag = parseSpecDiag(
        "{\"matrix\": {\"options\": [{\"tech\": \"flash\"}]}}");
    EXPECT_NE(diag.find("flash"), std::string::npos) << diag;
    diag = parseSpecDiag(
        "{\"campaign\": {\"scenarios\": [{\"kind\": \"comet\"}]}}");
    EXPECT_NE(diag.find("comet"), std::string::npos) << diag;
    diag = parseSpecDiag("{\"stress\": {\"scheme\": \"raid5\"}}");
    EXPECT_NE(diag.find("stress.scheme: unknown scheme 'raid5' "
                        "(baseline | sed | secded | pecc-o | lm-pos | "
                        "del-ins-k)"),
              std::string::npos)
        << diag;
    // A valid scheme without a stripe drill says so, with the same
    // list.
    diag = parseSpecDiag("{\"stress\": {\"scheme\": \"adaptive\"}}");
    EXPECT_NE(diag.find("stress.scheme: scheme 'adaptive' has no stripe "
                        "drill (baseline | sed | secded | pecc-o | "
                        "lm-pos | del-ins-k)"),
              std::string::npos)
        << diag;

    // Semantic validation: zero requests / divisor rejected.
    diag = parseSpecDiag("{\"matrix\": {\"requests\": 0}}");
    EXPECT_NE(diag.find("matrix.requests"), std::string::npos)
        << diag;

    // Integer fields reject fractions and out-of-range values
    // instead of truncating or wrapping them.
    diag = parseSpecDiag("{\"campaign\": {\"workload_cores\": 1e10}}");
    EXPECT_NE(diag.find("campaign.workload_cores: out of range"),
              std::string::npos)
        << diag;
    diag = parseSpecDiag(
        "{\"campaign\": {\"pecc\": {\"segments\": 2.5}}}");
    EXPECT_NE(diag.find("campaign.pecc.segments: expected an integer"),
              std::string::npos)
        << diag;
    // A divisor must leave every cache level a valid geometry.
    diag = parseSpecDiag("{\"matrix\": {\"divisor\": 48}}");
    EXPECT_NE(diag.find("matrix.divisor: capacity divisor 48 leaves L1 "
                        "below 1024 bytes"),
              std::string::npos)
        << diag;
    diag = parseSpecDiag("{\"matrix\": {\"divisor\": 3}}");
    EXPECT_NE(diag.find("matrix.divisor: L1 under capacity divisor 3: "
                        "set count must be a power of two"),
              std::string::npos)
        << diag;
    // 64 leaves L1 at 512 bytes; 32 is the largest valid divisor.
    diag = parseSpecDiag("{\"matrix\": {\"divisor\": 64}}");
    EXPECT_NE(diag.find("matrix.divisor"), std::string::npos) << diag;
    {
        JsonValue doc;
        std::string err;
        ASSERT_TRUE(JsonValue::parse("{\"matrix\": {\"divisor\": 32}}",
                                     &doc, &err));
        ExperimentSpec spec;
        EXPECT_TRUE(experimentSpecFromJson(doc, &spec, &err)) << err;
    }
    diag = parseSpecDiag("{\"matrix\": {\"divisor\": 3.7}}");
    EXPECT_NE(diag.find("matrix.divisor: expected an integer"),
              std::string::npos)
        << diag;
    diag = parseSpecDiag("{\"montecarlo\": {\"trials\": 1e30}}");
    EXPECT_NE(diag.find("montecarlo.trials: out of range"),
              std::string::npos)
        << diag;
    EXPECT_EQ(diag.find("must be >= 1"), std::string::npos) << diag;

    // Fields that parse but that a worker would abort on: each is
    // refused here with its dotted path instead.
    diag = parseSpecDiag("{\"campaign\": {\"workload_cores\": 0}}");
    EXPECT_NE(diag.find("campaign.workload_cores: must be >= 1"),
              std::string::npos)
        << diag;
    diag = parseSpecDiag(
        "{\"campaign\": {\"pecc\": {\"lseg\": 8, \"correct\": 8}}}");
    EXPECT_NE(diag.find("campaign.pecc: p-ECC requires m <= Lseg - 1 "
                        "(m=8, Lseg=8)"),
              std::string::npos)
        << diag;
    diag = parseSpecDiag(
        "{\"stress\": {\"scheme\": \"del-ins-k\", \"lseg\": 3}}");
    EXPECT_NE(diag.find("stress.lseg: too short for scheme 'del-ins-k': "
                        "del-ins code (L=3, k=2) leaves no data bits"),
              std::string::npos)
        << diag;
    diag = parseSpecDiag(
        "{\"stress\": {\"scheme\": \"lm-pos\", \"lseg\": 2}}");
    EXPECT_NE(diag.find("stress.lseg: too short for scheme 'lm-pos'"),
              std::string::npos)
        << diag;
    diag = parseSpecDiag("{\"montecarlo\": {\"fit_trials\": 1}}");
    EXPECT_NE(diag.find("montecarlo.fit_trials: must be 0 (no fit) or "
                        ">= 2"),
              std::string::npos)
        << diag;
    for (const char *p : {"-0.5", "1.5"}) {
        diag = parseSpecDiag(std::string("{\"campaign\": {\"bank\": "
                                         "{\"due_prob\": ") +
                             p + "}}}");
        EXPECT_NE(diag.find("campaign.bank.due_prob: must be in [0, 1]"),
                  std::string::npos)
            << diag;
    }

    // Multiple problems all reported in one pass.
    diag = parseSpecDiag(
        "{\"matrix\": {\"requests\": \"x\", \"divisor\": \"y\"}}");
    EXPECT_NE(diag.find("matrix.requests"), std::string::npos)
        << diag;
    EXPECT_NE(diag.find("matrix.divisor"), std::string::npos)
        << diag;

    // Non-object root.
    JsonValue doc("just a string");
    ExperimentSpec spec;
    std::string d2;
    EXPECT_FALSE(experimentSpecFromJson(doc, &spec, &d2));
    EXPECT_FALSE(d2.empty());
}

TEST(ExperimentSpec, LoadPrefixesDiagnosticsWithPath)
{
    const std::string path = "experiment_test_bad.json";
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"matrix\": {\"requests\": \"lots\"}}", f);
    std::fclose(f);

    ExperimentSpec spec;
    std::string diag;
    EXPECT_FALSE(loadExperimentSpec(path, &spec, &diag));
    EXPECT_NE(diag.find(path), std::string::npos) << diag;
    std::remove(path.c_str());

    EXPECT_FALSE(
        loadExperimentSpec("no_such_spec.json", &spec, &diag));
    EXPECT_NE(diag.find("no_such_spec.json"), std::string::npos)
        << diag;
}

TEST(ExperimentEngine, RunsEveryJobOnceAndMergesShardsInOrder)
{
    ExperimentEngine engine;
    constexpr size_t kJobs = 17;
    std::atomic<int> ran{0};
    for (size_t i = 0; i < kJobs; ++i) {
        ExperimentEngine::Cell cell;
        cell.body = [&ran, i](TelemetryScope scope, StopFlag *) {
            ran.fetch_add(1);
            ASSERT_TRUE(scope);
            scope->counter("engine_test.jobs").add(1);
            scope->gauge("engine_test.last_lane")
                .set(static_cast<double>(i));
        };
        engine.addCell(std::move(cell));
    }
    EXPECT_EQ(engine.jobCount(), kJobs);

    Telemetry telemetry(1 << 10);
    engine.run(&telemetry);
    EXPECT_EQ(ran.load(), static_cast<int>(kJobs));
    EXPECT_EQ(telemetry.counters().at("engine_test.jobs").value(),
              kJobs);
    // Shards merge in job order: the last lane's gauge write wins.
    EXPECT_EQ(
        telemetry.gauges().at("engine_test.last_lane").value(),
        static_cast<double>(kJobs - 1));
    // One-shot: the queue was consumed.
    EXPECT_EQ(engine.jobCount(), 0u);
}

/** Cell indices of the retained "experiment.cell" spans, in order. */
std::vector<size_t>
cellSpanIndices(const Telemetry &telemetry)
{
    std::vector<size_t> cells;
    for (const TraceEvent &e : telemetry.ringEvents()) {
        if (e.kind != EventKind::Span ||
            std::string(e.name) != "experiment.cell")
            continue;
        EXPECT_EQ(e.lane, static_cast<uint32_t>(e.a1));
        cells.push_back(static_cast<size_t>(e.a1));
    }
    return cells;
}

TEST(ExperimentRun, TimesEachExecutedCellOnceOnOneClock)
{
    // Matrix, campaign, stress and Monte-Carlo cells in one run:
    // the engine times every cell kind on the same clock.
    ExperimentSpec spec;
    spec.name = "cell-spans";
    spec.matrix.requests = 1000;
    spec.matrix.warmup = 100;
    spec.matrix.divisor = 32;
    spec.matrix.workloads = {"canneal"};
    spec.matrix.options = {
        {"SRAM", MemTech::SRAM, Scheme::Baseline},
        {"RM", MemTech::Racetrack, Scheme::PeccSAdaptive},
    };
    spec.campaign.enabled = true;
    spec.campaign.config.accesses_per_cell = 300;
    spec.campaign.config.bank_frames = 128;
    const std::vector<ScenarioSpec> scenarios = standardScenarios();
    spec.campaign.scenarios = {scenarios[0], scenarios[1]};
    spec.campaign.workloads = {"swaptions"};
    spec.stress.enabled = true;
    spec.stress.ops = 1000;
    spec.montecarlo.enabled = true;
    spec.montecarlo.trials = 5000;
    spec.montecarlo.fit_trials = 2000;
    normalizeExperimentSpec(&spec);

    const std::string journal =
        std::string(::testing::TempDir()) + "cell_spans.jsonl";
    std::remove(journal.c_str());
    RunControl stream;
    stream.stream_path = journal;
    Telemetry telemetry(1 << 18);
    const double before = monotonicSeconds();
    ExperimentResult res =
        runExperiment(spec, nullptr, &telemetry, stream);
    const double after = monotonicSeconds();
    ASSERT_TRUE(res.complete());
    ASSERT_EQ(res.cells, 6u); // 2 matrix, 2 campaign, stress, mc
    ASSERT_EQ(telemetry.eventsDropped(), 0u);

    // Exactly one span per cell, in cell order, plus the
    // Monte-Carlo kernel's run and fit spans.
    std::vector<size_t> want(res.cells);
    for (size_t i = 0; i < want.size(); ++i)
        want[i] = i;
    EXPECT_EQ(cellSpanIndices(telemetry), want);
    EXPECT_EQ(telemetry.eventCount(EventKind::Span), res.cells + 2);
    EXPECT_EQ(telemetry.histograms()
                  .at("experiment.cell_wall_ms")
                  .total(),
              res.cells);

    // Every span, whichever layer pushed it, lies inside the run on
    // the absolute monotonicSeconds() clock.
    for (const TraceEvent &e : telemetry.ringEvents()) {
        if (e.kind != EventKind::Span)
            continue;
        EXPECT_GE(e.timestamp, static_cast<uint64_t>(before * 1e6))
            << e.name;
        EXPECT_LE(static_cast<double>(e.timestamp) + e.a0,
                  after * 1e6 + 1.0)
            << e.name;
    }

    // Resume from a journal holding only some records: a replayed
    // cell is not run again, so it gets no span.
    std::string text, error;
    ASSERT_TRUE(readTextFile(journal, &text, &error)) << error;
    size_t cut = 0;
    for (int line = 0; line < 4; ++line) // header + 3 records
        cut = text.find('\n', cut) + 1;
    ASSERT_TRUE(saveTextFileAtomic(journal, text.substr(0, cut)));
    RunControl resume;
    resume.resume_path = journal;
    Telemetry resumed(1 << 18);
    ExperimentResult again =
        runExperiment(spec, nullptr, &resumed, resume);
    ASSERT_TRUE(again.complete());
    EXPECT_EQ(again.replayed_cells, 3u);
    std::vector<size_t> ran;
    for (size_t i = 0; i < again.outcomes.size(); ++i)
        if (again.outcomes[i].status != CellStatus::Skipped)
            ran.push_back(i);
    EXPECT_EQ(ran.size(), 3u);
    EXPECT_EQ(cellSpanIndices(resumed), ran);
    EXPECT_EQ(resumed.histograms()
                  .at("experiment.cell_wall_ms")
                  .total(),
              ran.size());
    std::remove(journal.c_str());
}

TEST(ExperimentRun, StressSectionMatchesStandaloneDrill)
{
    StressSpec stress;
    stress.scheme = "secded";
    stress.scale = 600.0;
    stress.ops = 4000;
    stress.seed = 11;
    StressResult alone = runStressDrill(stress);

    ExperimentSpec spec;
    spec.matrix.enabled = false;
    spec.stress = stress;
    spec.stress.enabled = true;
    normalizeExperimentSpec(&spec);
    ExperimentResult res = runExperiment(spec);
    EXPECT_FALSE(res.has_matrix);
    EXPECT_FALSE(res.has_campaign);
    ASSERT_TRUE(res.has_stress);
    EXPECT_EQ(res.cells, 1u);
    EXPECT_EQ(res.stress.corrected, alone.corrected);
    EXPECT_EQ(res.stress.due, alone.due);
    EXPECT_EQ(res.stress.silent, alone.silent);
    EXPECT_EQ(res.stress.clean, alone.clean);
    EXPECT_EQ(res.stress.exp_corrected, alone.exp_corrected);
    EXPECT_EQ(res.stress.exp_due, alone.exp_due);
    EXPECT_EQ(res.stress.exp_sdc, alone.exp_sdc);
    EXPECT_EQ(res.stress.distances.mean(),
              alone.distances.mean());
}

TEST(ExperimentRun, ResultJsonParsesAndCoversEverySection)
{
    ExperimentSpec spec;
    spec.name = "export-test";
    spec.matrix.requests = 2000;
    spec.matrix.warmup = 200;
    spec.matrix.divisor = 32;
    spec.matrix.workloads = {"canneal"};
    spec.matrix.options = {
        {"SRAM", MemTech::SRAM, Scheme::Baseline},
        {"RM", MemTech::Racetrack, Scheme::PeccSAdaptive},
    };
    spec.stress.enabled = true;
    spec.stress.ops = 2000;
    normalizeExperimentSpec(&spec);

    ExperimentResult res = runExperiment(spec);
    EXPECT_EQ(res.cells, 3u); // 1 workload x 2 options + stress

    JsonValue doc = experimentResultToJson(res);
    // The document round-trips through text.
    JsonValue back;
    std::string err;
    ASSERT_TRUE(JsonValue::parse(doc.dump(), &back, &err)) << err;
    EXPECT_EQ(back.find("name")->asString(), "export-test");
    EXPECT_EQ(back.find("cells")->asU64(), 3u);

    // Embedded spec parses back to the spec that ran.
    ExperimentSpec spec_back;
    std::string diag;
    ASSERT_TRUE(experimentSpecFromJson(*back.find("spec"),
                                       &spec_back, &diag))
        << diag;
    EXPECT_EQ(spec_back, res.spec);

    const JsonValue *matrix = back.find("matrix");
    ASSERT_NE(matrix, nullptr);
    ASSERT_NE(matrix->find("results"), nullptr);
    ASSERT_EQ(matrix->find("results")->size(), 2u);
    const JsonValue &cell = matrix->find("results")->at(0);
    EXPECT_EQ(cell.find("workload")->asString(), "canneal");
    EXPECT_EQ(cell.find("option")->asString(), "SRAM");
    EXPECT_GT(cell.find("cycles")->asU64(), 0u);
    // Non-racetrack MTTFs are infinite -> exported as JSON null.
    EXPECT_TRUE(cell.find("sdc_mttf")->isNull());
    const JsonValue &rm = matrix->find("results")->at(1);
    EXPECT_TRUE(rm.find("sdc_mttf")->isNumber());

    const JsonValue *stress = back.find("stress");
    ASSERT_NE(stress, nullptr);
    EXPECT_EQ(stress->find("scheme")->asString(), "secded");
    EXPECT_TRUE(stress->find("clean")->isNumber());
    EXPECT_TRUE(stress->find("expected_due")->isNumber());

    // writeExperimentJson emits the same document to disk.
    const std::string path = "experiment_test_result.json";
    ASSERT_TRUE(writeExperimentJson(res, path));
    JsonValue from_disk;
    ASSERT_TRUE(loadJsonFile(path, &from_disk, &err)) << err;
    EXPECT_EQ(from_disk, doc);
    std::remove(path.c_str());
}

TEST(ExperimentSpec, MonteCarloSectionRoundTripsAndExpands)
{
    ExperimentSpec spec = parseSpecOk(
        "{\"matrix\": {\"enabled\": false},"
        " \"montecarlo\": {\"enabled\": true, \"distance\": 4,"
        "  \"trials\": 5000, \"fit_trials\": 2000,"
        "  \"seed\": 9, \"tier\": \"fast\"}}");
    EXPECT_TRUE(spec.montecarlo.enabled);
    EXPECT_EQ(spec.montecarlo.distance, 4);
    EXPECT_EQ(spec.montecarlo.trials, 5000u);
    EXPECT_EQ(spec.montecarlo.fit_trials, 2000u);
    EXPECT_EQ(spec.montecarlo.seed, 9u);
    EXPECT_EQ(spec.montecarlo.tier, "fast");

    JsonValue doc = experimentSpecToJson(spec);
    ExperimentSpec back;
    std::string diag;
    ASSERT_TRUE(experimentSpecFromJson(doc, &back, &diag)) << diag;
    EXPECT_EQ(back, spec);

    // The section expands to exactly one cell, scheduled last.
    auto cells = expandCells(spec);
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_EQ(cells[0].kind, ExperimentCell::Kind::MonteCarlo);
    EXPECT_EQ(cells[0].label(), "montecarlo");
}

TEST(ExperimentSpec, MonteCarloSectionRejectsBadFields)
{
    std::string diag = parseSpecDiag(
        "{\"montecarlo\": {\"tier\": \"turbo\"}}");
    EXPECT_NE(diag.find("turbo"), std::string::npos) << diag;
    diag = parseSpecDiag("{\"montecarlo\": {\"distance\": 0}}");
    EXPECT_NE(diag.find("montecarlo.distance"), std::string::npos)
        << diag;
    diag = parseSpecDiag("{\"montecarlo\": {\"trils\": 5}}");
    EXPECT_NE(diag.find("trils"), std::string::npos) << diag;
}

TEST(ExperimentRun, MonteCarloSectionRunsAndExports)
{
    ExperimentSpec spec;
    spec.name = "mc-export";
    spec.matrix.enabled = false;
    spec.montecarlo.enabled = true;
    spec.montecarlo.distance = 7;
    spec.montecarlo.trials = 20000;
    spec.montecarlo.fit_trials = 10000;
    spec.montecarlo.seed = 5;
    spec.montecarlo.tier = "exact";
    normalizeExperimentSpec(&spec);

    ExperimentResult res = runExperiment(spec);
    EXPECT_EQ(res.cells, 1u);
    ASSERT_TRUE(res.has_mc);
    EXPECT_EQ(res.mc.distance, 7);
    EXPECT_EQ(res.mc.trials, 20000u);
    EXPECT_EQ(res.mc.tier, "exact");
    EXPECT_GT(res.mc.deviation_stddev, 0.0);
    EXPECT_GT(res.mc.step_prob_ok, 0.5);
    ASSERT_TRUE(res.mc.has_fit);
    EXPECT_GT(res.mc.fit.sigma_step, 0.0);

    // The engine cell matches a standalone exact-tier run.
    PositionErrorMonteCarlo alone(DeviceParams{}, 5,
                                  McTier::Exact);
    ErrorPdf pdf = alone.run(7, 20000);
    EXPECT_EQ(res.mc.deviation_mean, pdf.deviation.mean());
    EXPECT_EQ(res.mc.step_prob_ok, pdf.stepProbability(0));

    JsonValue doc = experimentResultToJson(res);
    const JsonValue *mc = doc.find("montecarlo");
    ASSERT_NE(mc, nullptr);
    EXPECT_EQ(mc->find("tier")->asString(), "exact");
    EXPECT_TRUE(mc->find("deviation_stddev")->isNumber());
    ASSERT_NE(mc->find("fit"), nullptr);
    EXPECT_TRUE(mc->find("fit")->find("sigma_step")->isNumber());
}

} // namespace
} // namespace rtm
