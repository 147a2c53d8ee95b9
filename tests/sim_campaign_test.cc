/**
 * @file
 * Campaign-runner tests: full fault containment across the scenario
 * catalogue, ledger reconciliation, JSON emission, and bit-identical
 * results across thread counts under a fixed seed.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "sim/campaign.hh"
#include "sim/experiment.hh"
#include "util/parallel.hh"
#include "util/telemetry.hh"

namespace rtm
{
namespace
{

CampaignConfig
quickConfig()
{
    CampaignConfig c;
    c.accesses_per_cell = 500;
    c.seed = 1234;
    return c;
}

/** A campaign-only spec of `scenarios` x `workloads`, run. */
CampaignResult
campaignOnly(const std::vector<ScenarioSpec> &scenarios,
             const std::vector<std::string> &workloads,
             const CampaignConfig &config, TelemetryScope telemetry = {})
{
    ExperimentSpec spec;
    spec.matrix.enabled = false;
    spec.campaign.enabled = true;
    spec.campaign.config = config;
    spec.campaign.scenarios = scenarios;
    spec.campaign.workloads = workloads;
    return runExperiment(spec, nullptr, telemetry).campaign;
}

void
expectLedgersEqual(const CampaignLedger &a, const CampaignLedger &b)
{
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.injected_samples, b.injected_samples);
    EXPECT_EQ(a.injected_faults, b.injected_faults);
    EXPECT_EQ(a.injected_step_errors, b.injected_step_errors);
    EXPECT_EQ(a.injected_stops, b.injected_stops);
    EXPECT_EQ(a.detected, b.detected);
    EXPECT_EQ(a.corrected, b.corrected);
    EXPECT_EQ(a.recovered_retry, b.recovered_retry);
    EXPECT_EQ(a.recovered_realign, b.recovered_realign);
    EXPECT_EQ(a.recovered_scrub, b.recovered_scrub);
    EXPECT_EQ(a.due, b.due);
    EXPECT_EQ(a.sdc, b.sdc);
}

TEST(Campaign, EveryCellContainsItsFaults)
{
    CampaignResult r =
        campaignOnly(standardScenarios(), {"swaptions", "canneal"},
                     quickConfig());
    ASSERT_EQ(r.cells.size(), 10u);
    for (const CampaignCellResult &cell : r.cells) {
        EXPECT_TRUE(cell.contained)
            << cell.scenario << "/" << cell.workload << ": "
            << cell.violation;
        // Every detection ends in exactly one outcome bucket.
        const CampaignLedger &l = cell.ledger;
        EXPECT_EQ(l.detected,
                  l.corrected + l.recovered_retry +
                      l.recovered_realign + l.recovered_scrub +
                      l.due);
        EXPECT_GE(l.injected_faults, l.detected);
        EXPECT_GT(l.injected_samples, 0u);
    }
    EXPECT_TRUE(r.allContained());
    EXPECT_EQ(r.contained_cells, 10u);
    EXPECT_GT(r.totals.injected_faults, 0u);
}

TEST(Campaign, AdversarialRegimesExerciseTheLadder)
{
    CampaignConfig config = quickConfig();
    config.accesses_per_cell = 1500;
    CampaignResult r =
        campaignOnly(standardScenarios(), {"swaptions"}, config);
    uint64_t ladder = r.totals.recovered_retry +
                      r.totals.recovered_realign +
                      r.totals.recovered_scrub;
    EXPECT_GT(ladder, 0u);
    EXPECT_GT(r.totals.corrected, 0u);
}

TEST(Campaign, BitIdenticalAcrossThreadCounts)
{
    std::vector<ScenarioSpec> scenarios = standardScenarios();
    std::vector<std::string> workloads = {"swaptions", "ferret"};
    CampaignConfig config = quickConfig();

    ThreadPool::setGlobalThreads(1);
    CampaignResult serial =
        campaignOnly(scenarios, workloads, config);
    ThreadPool::setGlobalThreads(3);
    CampaignResult parallel =
        campaignOnly(scenarios, workloads, config);
    ThreadPool::setGlobalThreads(ThreadPool::configuredThreads());

    ASSERT_EQ(serial.cells.size(), parallel.cells.size());
    for (size_t i = 0; i < serial.cells.size(); ++i) {
        const CampaignCellResult &a = serial.cells[i];
        const CampaignCellResult &b = parallel.cells[i];
        EXPECT_EQ(a.scenario, b.scenario);
        EXPECT_EQ(a.workload, b.workload);
        expectLedgersEqual(a.ledger, b.ledger);
        EXPECT_EQ(a.access_latency.count(),
                  b.access_latency.count());
        EXPECT_EQ(a.access_latency.mean(), b.access_latency.mean());
        EXPECT_EQ(a.bank_degraded_groups, b.bank_degraded_groups);
        EXPECT_EQ(a.bank_remapped_accesses,
                  b.bank_remapped_accesses);
        EXPECT_EQ(a.degraded_capacity_fraction,
                  b.degraded_capacity_fraction);
        EXPECT_EQ(a.contained, b.contained);
    }
    expectLedgersEqual(serial.totals, parallel.totals);
}

TEST(Campaign, CombinedSpecInterleavingIsBitIdentical)
{
    // Matrix and campaign cells scheduled as ONE job set by
    // runExperiment (no per-matrix barrier) must reproduce the
    // campaign-only spec's result exactly, at several thread
    // counts: cell seeds depend only on the campaign seed and cell
    // index, never on job interleaving.
    ExperimentSpec spec;
    spec.matrix.requests = 2000;
    spec.matrix.warmup = 200;
    spec.matrix.divisor = 32;
    spec.matrix.workloads = {"swaptions", "canneal"};
    spec.campaign.enabled = true;
    spec.campaign.config = quickConfig();
    spec.campaign.workloads = {"swaptions", "ferret"};
    normalizeExperimentSpec(&spec);
    ASSERT_EQ(spec.campaign.scenarios.size(),
              standardScenarios().size());

    CampaignResult alone =
        campaignOnly(spec.campaign.scenarios, spec.campaign.workloads,
                     spec.campaign.config);

    for (unsigned threads : {1u, 4u}) {
        ThreadPool::setGlobalThreads(threads);
        ExperimentResult combined = runExperiment(spec);
        EXPECT_EQ(combined.cells,
                  spec.matrix.workloads.size() *
                          spec.matrix.options.size() +
                      alone.cells.size());
        ASSERT_TRUE(combined.has_campaign);
        ASSERT_EQ(combined.campaign.cells.size(),
                  alone.cells.size());
        for (size_t i = 0; i < alone.cells.size(); ++i) {
            const CampaignCellResult &a = alone.cells[i];
            const CampaignCellResult &b =
                combined.campaign.cells[i];
            EXPECT_EQ(a.scenario, b.scenario);
            EXPECT_EQ(a.workload, b.workload);
            expectLedgersEqual(a.ledger, b.ledger);
            EXPECT_EQ(a.access_latency.mean(),
                      b.access_latency.mean());
            EXPECT_EQ(a.contained, b.contained);
        }
        expectLedgersEqual(alone.totals, combined.campaign.totals);
        EXPECT_EQ(alone.contained_cells,
                  combined.campaign.contained_cells);
    }
    ThreadPool::setGlobalThreads(ThreadPool::configuredThreads());
}

/**
 * Run `config` over 1000-access cells with telemetry and reconcile
 * every event stream and counter with the ledgers. `rung` receives
 * the recovery-rung event counts by name.
 */
void
reconcileTelemetry(CampaignConfig config,
                   std::map<std::string, uint64_t> &rung)
{
    config.accesses_per_cell = 1000;
    // Per-cell ring large enough that no event is ever overwritten:
    // the rung reconciliation below scans individual ring events.
    config.telemetry_ring_capacity = 1 << 15;
    Telemetry telemetry(1 << 20);

    CampaignResult r =
        campaignOnly(standardScenarios(), {"swaptions", "canneal"},
                     config, &telemetry);
    ASSERT_EQ(r.cells.size(), 10u);
    ASSERT_EQ(telemetry.eventsDropped(), 0u);

    auto counter = [&](const char *name) {
        return telemetry.counters().at(name).value();
    };

    // Counters are exported from the reconciled ledger itself, so
    // the JSON view can never disagree with CampaignResult totals.
    // Every ledger field (walked through its field list, so a new
    // one is covered without editing this test) has its counter.
    EXPECT_EQ(counter("campaign.cells"), r.cells.size());
    size_t ledger_fields = 0;
    forEachField(
        [&](const char *key, uint64_t total) {
            ++ledger_fields;
            const std::string name = std::string("campaign.") + key;
            ASSERT_EQ(telemetry.counters().count(name), 1u) << name;
            EXPECT_EQ(counter(name.c_str()), total) << name;
        },
        r.totals);
    EXPECT_GT(ledger_fields, 0u);
    EXPECT_GT(r.totals.injected_samples, 0u);
    EXPECT_EQ(telemetry.counters().count("campaign.violations"), 0u);

    // Event streams are emitted at the injection/detection sites,
    // *independently* of the ledger bookkeeping — their totals must
    // land on exactly the same numbers.
    EXPECT_EQ(telemetry.eventCount(EventKind::ErrorInjected),
              r.totals.injected_faults);
    EXPECT_EQ(telemetry.eventCount(EventKind::ErrorDetected),
              r.totals.detected);

    // Recovery-ladder rungs: a rung event fires when a rung claims
    // the error; if a later DUE reclassifies the episode the
    // controller emits a paired "reclassified-<rung>" event. Net
    // counts must equal the ControllerStats ledger buckets.
    for (const TraceEvent &e : telemetry.ringEvents())
        if (e.kind == EventKind::RecoveryRung)
            ++rung[e.name];
    auto rungCount = [&](const char *name) -> uint64_t {
        auto it = rung.find(name);
        return it == rung.end() ? 0 : it->second;
    };
    EXPECT_EQ(rungCount("retry") - rungCount("reclassified-retry"),
              r.totals.recovered_retry);
    EXPECT_EQ(rungCount("realign") -
                  rungCount("reclassified-realign"),
              r.totals.recovered_realign);
    EXPECT_EQ(rungCount("scrub") - rungCount("reclassified-scrub"),
              r.totals.recovered_scrub);
    EXPECT_EQ(rungCount("due") + rungCount("reclassified-retry") +
                  rungCount("reclassified-realign") +
                  rungCount("reclassified-scrub"),
              r.totals.due);

    // Bank degradation drill: retirement/remap events and the
    // bank-layer counters reconcile with the RmBankStats ledgers.
    uint64_t degraded = 0, bank_due = 0, remapped = 0;
    for (const CampaignCellResult &cell : r.cells) {
        degraded += cell.bank_degraded_groups;
        bank_due += cell.bank_due_reports;
        remapped += cell.bank_remapped_accesses;
    }
    EXPECT_GT(bank_due, 0u);
    EXPECT_EQ(telemetry.eventCount(EventKind::GroupRetired),
              degraded);
    EXPECT_EQ(telemetry.eventCount(EventKind::FrameRemapped),
              remapped);
    EXPECT_EQ(counter("campaign.bank.degraded_groups"), degraded);
    EXPECT_EQ(counter("campaign.bank.due_reports"), bank_due);
    EXPECT_EQ(counter("campaign.bank.remapped_accesses"), remapped);
    EXPECT_EQ(counter("mem.rm_bank.due_reports"), bank_due);
    EXPECT_EQ(counter("mem.rm_bank.groups_retired"), degraded);
    EXPECT_EQ(counter("mem.rm_bank.remapped_accesses"), remapped);

    // One wall-clock span per cell.
    EXPECT_EQ(telemetry.eventCount(EventKind::Span),
              r.cells.size());
}

TEST(Campaign, TelemetryReconcilesWithLedgers)
{
    std::map<std::string, uint64_t> rung;
    reconcileTelemetry(quickConfig(), rung);
}

TEST(Campaign, TelemetryReconcilesWithLedgersWithoutReplans)
{
    // No re-seek after a recovery: a recovered episode that left the
    // access unfinished is reclassified as a DUE, so every rung's
    // reversal event must reconcile too. One retry and faster
    // faults carry episodes up to the realign and scrub rungs.
    CampaignConfig config = quickConfig();
    config.recovery.max_replans = 0;
    config.recovery.retry_budget = 1;
    config.scale = 8000.0;
    std::map<std::string, uint64_t> rung;
    reconcileTelemetry(config, rung);
    for (const char *name : {"reclassified-retry", "reclassified-realign",
                             "reclassified-scrub"})
        EXPECT_GT(rung[name], 0u) << name;
}

TEST(Campaign, TelemetryMergeDeterministicAcrossThreadCounts)
{
    // Same discipline as the result ledgers: shard-per-cell merged
    // in cell order, so every deterministic quantity (counters and
    // event counts; wall-clock spans and histograms are exempt) is
    // bit-identical for any RTM_THREADS.
    std::vector<ScenarioSpec> scenarios = standardScenarios();
    std::vector<std::string> workloads = {"swaptions", "ferret"};
    CampaignConfig config = quickConfig();

    auto rungNames = [](const Telemetry &t) {
        std::map<std::string, uint64_t> rung;
        for (const TraceEvent &e : t.ringEvents())
            if (e.kind == EventKind::RecoveryRung)
                ++rung[e.name];
        return rung;
    };

    ThreadPool::setGlobalThreads(1);
    Telemetry serial_t(1 << 18);
    campaignOnly(scenarios, workloads, config, &serial_t);

    ThreadPool::setGlobalThreads(3);
    Telemetry parallel_t(1 << 18);
    campaignOnly(scenarios, workloads, config, &parallel_t);
    ThreadPool::setGlobalThreads(ThreadPool::configuredThreads());

    auto sc = serial_t.counters();
    auto pc = parallel_t.counters();
    ASSERT_EQ(sc.size(), pc.size());
    for (const auto &kv : sc) {
        ASSERT_EQ(pc.count(kv.first), 1u) << kv.first;
        EXPECT_EQ(kv.second.value(), pc.at(kv.first).value())
            << kv.first;
    }
    for (int k = 0; k < static_cast<int>(EventKind::kCount); ++k) {
        EventKind kind = static_cast<EventKind>(k);
        EXPECT_EQ(serial_t.eventCount(kind),
                  parallel_t.eventCount(kind))
            << eventKindName(kind);
    }
    EXPECT_EQ(rungNames(serial_t), rungNames(parallel_t));
}

TEST(Campaign, DegradationDrillRetiresGroupsGracefully)
{
    CampaignConfig config = quickConfig();
    config.accesses_per_cell = 2000;
    config.bank_due_prob = 0.02;
    std::vector<ScenarioSpec> one = {standardScenarios()[0]};
    CampaignResult r = campaignOnly(one, {"swaptions"}, config);
    ASSERT_EQ(r.cells.size(), 1u);
    const CampaignCellResult &cell = r.cells[0];
    EXPECT_GT(cell.bank_due_reports, 0u);
    EXPECT_GT(cell.bank_degraded_groups, 0u);
    EXPECT_GT(cell.degraded_capacity_fraction, 0.0);
    EXPECT_LE(cell.degraded_capacity_fraction, 1.0);
    EXPECT_TRUE(cell.contained) << cell.violation;
}

TEST(Campaign, ReportJsonListsCellsAndCoverage)
{
    std::vector<ScenarioSpec> one = {standardScenarios()[1]};
    CampaignConfig config = quickConfig();
    config.accesses_per_cell = 300;
    CampaignResult r = campaignOnly(one, {"swaptions"}, config);
    ASSERT_EQ(r.cells.size(), 1u);
    const JsonValue doc = campaignResultToJson(r);

    const JsonValue *cells = doc.find("cells");
    ASSERT_NE(cells, nullptr);
    ASSERT_EQ(cells->size(), 1u);
    const JsonValue &cell = cells->at(0);
    ASSERT_NE(cell.find("scenario"), nullptr);
    EXPECT_EQ(cell.find("scenario")->asString(), "burst");
    ASSERT_NE(cell.find("injected_faults"), nullptr);
    EXPECT_EQ(cell.find("injected_faults")->asU64(),
              r.cells[0].ledger.injected_faults);
    ASSERT_NE(doc.find("total_cells"), nullptr);
    EXPECT_EQ(doc.find("total_cells")->asU64(), 1u);
    ASSERT_NE(doc.find("containment_coverage"), nullptr);
    EXPECT_EQ(doc.find("containment_coverage")->asDouble(),
              static_cast<double>(r.contained_cells));
}

} // namespace
} // namespace rtm
