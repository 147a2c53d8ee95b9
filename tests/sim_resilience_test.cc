/**
 * @file
 * Crash-safety tests for the experiment engine: kill-after-K-cells
 * with checkpoint/resume reproducing the bit-identical digest (at
 * several worker counts), corrupted-journal salvage, fault
 * containment with retry budgets, and the deadline watchdog.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <random>
#include <string>
#include <thread>

#include "sim/experiment.hh"
#include "util/parallel.hh"
#include "util/serde.hh"

namespace rtm
{
namespace
{

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

/**
 * A fast spec touching every section: 4 matrix cells, 2 campaign
 * cells, the stress drill and the Monte-Carlo cell — 8 cells total.
 */
ExperimentSpec
smallSpec()
{
    ExperimentSpec spec;
    spec.name = "resilience-unit";
    spec.matrix.enabled = true;
    spec.matrix.requests = 4000;
    spec.matrix.warmup = 400;
    spec.matrix.divisor = 16;
    spec.matrix.workloads = {"swaptions", "canneal"};
    spec.matrix.options = {
        {"RM adaptive", MemTech::Racetrack, Scheme::PeccSAdaptive},
        {"STT-RAM", MemTech::STTRAM, Scheme::Baseline},
    };
    spec.campaign.enabled = true;
    spec.campaign.config.accesses_per_cell = 300;
    spec.campaign.config.bank_frames = 128;
    auto scenarios = standardScenarios();
    spec.campaign.scenarios = {scenarios[0], scenarios[1]};
    spec.campaign.workloads = {"swaptions"};
    spec.stress.enabled = true;
    spec.stress.ops = 4000;
    spec.montecarlo.enabled = true;
    spec.montecarlo.trials = 20000;
    normalizeExperimentSpec(&spec);
    return spec;
}

TEST(SpecHash, IgnoresSinksAndResilience)
{
    ExperimentSpec a = smallSpec();
    ExperimentSpec b = a;
    b.metrics_path = "metrics.json";
    b.trace_path = "trace.json";
    b.output_path = "out.json";
    b.resilience.retry_budget = 5;
    b.resilience.cell_deadline_ms = 1000;
    EXPECT_EQ(experimentSpecHash(a), experimentSpecHash(b));
    b.matrix.seed = a.matrix.seed + 1;
    EXPECT_NE(experimentSpecHash(a), experimentSpecHash(b));
}

TEST(JournalResume, RejectsForeignJournal)
{
    ExperimentSpec spec = smallSpec();
    JournalFile journal;
    EXPECT_NE(journalResumeError(journal, spec, 8), "");

    journal.has_header = true;
    journal.header = makeJournalHeader(spec, 8);
    EXPECT_EQ(journalResumeError(journal, spec, 8), "");

    JournalFile wrong_cells = journal;
    wrong_cells.header.cells = 9;
    EXPECT_NE(journalResumeError(wrong_cells, spec, 8), "");

    JournalFile wrong_seed = journal;
    wrong_seed.header.matrix_seed += 1;
    EXPECT_NE(journalResumeError(wrong_seed, spec, 8), "");

    ExperimentSpec other = spec;
    other.stress.scale *= 2;
    EXPECT_NE(journalResumeError(journal, other, 8), "");
}

/**
 * The tentpole property: kill a run after a random K of N cells,
 * resume from its journal, and the merged result digest is
 * bit-identical to an uninterrupted run — at 1 worker and at the
 * hardware worker count.
 */
TEST(KillResume, DigestMatchesUninterruptedRun)
{
    const ExperimentSpec spec = smallSpec();
    const ExperimentResult reference = runExperiment(spec);
    ASSERT_TRUE(reference.complete());
    const std::string want = experimentResultDigest(reference);

    const unsigned hw =
        std::max(2u, std::thread::hardware_concurrency());
    std::minstd_rand rng(1234);
    for (unsigned threads : {1u, hw}) {
        ThreadPool::setGlobalThreads(threads);
        for (int round = 0; round < 2; ++round) {
            const std::string journal = tempPath(
                ("resume_" + std::to_string(threads) + "_" +
                 std::to_string(round) + ".jsonl")
                    .c_str());
            std::remove(journal.c_str());

            // Interrupted leg: cancel after K completions.
            const size_t kill_after =
                1 + rng() % (reference.cells - 1);
            CancelToken cancel;
            std::atomic<size_t> done{0};
            RunControl interrupt;
            interrupt.cancel = &cancel;
            interrupt.stream_path = journal;
            interrupt.on_cell = [&](size_t,
                                    const CellOutcome &o) {
                if (o.status == CellStatus::Ok &&
                    ++done >= kill_after)
                    cancel.requestCancel();
            };
            ExperimentResult cut =
                runExperiment(spec, nullptr, {}, interrupt);
            ASSERT_GE(cut.ok_cells, kill_after);

            // Resumed leg: replay the journal, run the rest.
            RunControl resume;
            resume.resume_path = journal;
            resume.stream_path = journal;
            ExperimentResult full =
                runExperiment(spec, nullptr, {}, resume);
            EXPECT_TRUE(full.complete());
            EXPECT_EQ(full.replayed_cells, cut.ok_cells);
            EXPECT_EQ(experimentResultDigest(full), want)
                << "threads=" << threads
                << " kill_after=" << kill_after;
            std::remove(journal.c_str());
        }
    }
    ThreadPool::setGlobalThreads(hw);
}

/** A corrupted record is dropped and its cell re-runs on resume. */
TEST(KillResume, CorruptedRecordRerunsCell)
{
    const ExperimentSpec spec = smallSpec();
    const std::string want =
        experimentResultDigest(runExperiment(spec));

    const std::string journal = tempPath("corrupt_resume.jsonl");
    std::remove(journal.c_str());
    {
        RunControl control;
        control.stream_path = journal;
        ExperimentResult res =
            runExperiment(spec, nullptr, {}, control);
        ASSERT_TRUE(res.complete());
    }

    // Flip a payload byte inside the second record line.
    std::string text, error;
    ASSERT_TRUE(readTextFile(journal, &text, &error)) << error;
    size_t pos = text.find('\n');
    pos = text.find('\n', pos + 1);
    ASSERT_NE(pos, std::string::npos);
    ASSERT_LT(pos + 30, text.size());
    text[pos + 30] ^= 1;
    ASSERT_TRUE(saveTextFileAtomic(journal, text));

    JournalFile parsed;
    ASSERT_TRUE(readJournal(journal, &parsed, &error)) << error;
    EXPECT_EQ(parsed.dropped_lines, 1u);

    RunControl resume;
    resume.resume_path = journal;
    ExperimentResult full =
        runExperiment(spec, nullptr, {}, resume);
    EXPECT_TRUE(full.complete());
    EXPECT_EQ(full.replayed_cells,
              static_cast<uint64_t>(full.cells) - 1);
    EXPECT_EQ(full.ok_cells, 1u);
    EXPECT_EQ(experimentResultDigest(full), want);
    std::remove(journal.c_str());
}

/**
 * A record with a valid CRC but a mistyped or non-integral field is
 * rejected by the strict reload, so its cell re-runs instead of
 * replaying as zeros and silently changing the digest.
 */
TEST(KillResume, MistypedRecordRerunsCell)
{
    const ExperimentSpec spec = smallSpec();
    const std::string want =
        experimentResultDigest(runExperiment(spec));

    const std::string full = tempPath("mistyped_full.jsonl");
    std::remove(full.c_str());
    {
        RunControl control;
        control.stream_path = full;
        ASSERT_TRUE(runExperiment(spec, nullptr, {}, control)
                        .complete());
    }
    JournalFile parsed;
    std::string error;
    ASSERT_TRUE(readJournal(full, &parsed, &error)) << error;
    ASSERT_TRUE(parsed.has_header);

    // Rewrite the journal through the writer (every CRC valid) with
    // one matrix record's count turned into a string and the
    // Monte-Carlo record's trial count made fractional.
    const std::string journal = tempPath("mistyped_resume.jsonl");
    JournalWriter writer;
    ASSERT_TRUE(writer.open(journal, false, &error)) << error;
    ASSERT_TRUE(writer.appendHeader(parsed.header));
    int broken = 0;
    for (JournalRecord record : parsed.records) {
        JsonValue &result = record.result;
        if (broken == 0 && result.find("instructions")) {
            result.set("instructions", "x");
            ++broken;
        } else if (record.label == "montecarlo") {
            result.set("trials", 2.5);
            ++broken;
        }
        ASSERT_TRUE(writer.appendRecord(record));
    }
    ASSERT_TRUE(writer.close());
    ASSERT_EQ(broken, 2);

    RunControl resume;
    resume.resume_path = journal;
    ExperimentResult res = runExperiment(spec, nullptr, {}, resume);
    EXPECT_TRUE(res.complete());
    EXPECT_EQ(res.replayed_cells,
              static_cast<uint64_t>(res.cells) - 2);
    EXPECT_EQ(res.ok_cells, 2u);
    EXPECT_EQ(experimentResultDigest(res), want);
    std::remove(full.c_str());
    std::remove(journal.c_str());
}

/** A throwing cell is contained: Failed outcome, sweep completes. */
TEST(FaultContainment, ThrowingCellDoesNotAbortTheSweep)
{
    const ExperimentSpec spec = smallSpec();
    RunControl control;
    control.fault_hook = [](size_t index, int) {
        if (index == 2)
            throw std::runtime_error("injected cell fault");
    };
    ExperimentResult res =
        runExperiment(spec, nullptr, {}, control);
    EXPECT_FALSE(res.complete());
    EXPECT_FALSE(res.interrupted);
    EXPECT_EQ(res.failed_cells, 1u);
    EXPECT_EQ(res.ok_cells,
              static_cast<uint64_t>(res.cells) - 1);
    ASSERT_EQ(res.outcomes.size(), res.cells);
    EXPECT_EQ(res.outcomes[2].status, CellStatus::Failed);
    EXPECT_EQ(res.outcomes[2].error, "injected cell fault");
    EXPECT_EQ(res.outcomes[2].attempts, 1);
    for (size_t i = 0; i < res.outcomes.size(); ++i)
        if (i != 2)
            EXPECT_EQ(res.outcomes[i].status, CellStatus::Ok);

    // The failure lands in the result document too.
    JsonValue doc = experimentResultToJson(res);
    const JsonValue *resilience = doc.find("resilience");
    ASSERT_NE(resilience, nullptr);
    EXPECT_EQ(resilience->find("failed")->asU64(), 1u);
    const JsonValue *outcomes = resilience->find("outcomes");
    ASSERT_NE(outcomes, nullptr);
    ASSERT_EQ(outcomes->size(), 1u);
    EXPECT_EQ(outcomes->at(0).find("status")->asString(),
              "failed");
}

/** The retry budget turns a flaky cell into an Ok outcome. */
TEST(FaultContainment, RetryBudgetRecoversFlakyCell)
{
    ExperimentSpec spec = smallSpec();
    spec.resilience.retry_budget = 2;
    spec.resilience.backoff_ms = 1;
    std::atomic<int> failures{0};
    RunControl control;
    control.fault_hook = [&failures](size_t index, int attempt) {
        if (index == 0 && attempt == 1) {
            ++failures;
            throw std::runtime_error("transient");
        }
    };
    ExperimentResult res =
        runExperiment(spec, nullptr, {}, control);
    EXPECT_EQ(failures.load(), 1);
    EXPECT_TRUE(res.complete());
    EXPECT_EQ(res.failed_cells, 0u);
    EXPECT_EQ(res.outcomes[0].status, CellStatus::Ok);
    EXPECT_EQ(res.outcomes[0].attempts, 2);
    // Retries must not change the result bits.
    EXPECT_EQ(experimentResultDigest(res),
              experimentResultDigest(runExperiment(spec)));
}

/** The per-cell watchdog classifies a stuck cell as TimedOut. */
TEST(Watchdog, CellDeadlineTripsTimedOut)
{
    ExperimentSpec spec = smallSpec();
    spec.matrix.requests = 2000000; // far beyond a 1 ms budget
    spec.campaign.enabled = false;
    spec.stress.enabled = false;
    spec.montecarlo.enabled = false;
    spec.resilience.cell_deadline_ms = 1;
    normalizeExperimentSpec(&spec);
    ExperimentResult res = runExperiment(spec);
    EXPECT_TRUE(res.interrupted);
    EXPECT_FALSE(res.complete());
    EXPECT_GT(res.timed_out_cells, 0u);
    for (const CellOutcome &o : res.outcomes)
        EXPECT_TRUE(o.status == CellStatus::TimedOut ||
                    o.status == CellStatus::Cancelled ||
                    o.status == CellStatus::Ok);
}

/**
 * A Monte-Carlo cell whose deadline has passed returns (the engine
 * then discards it as TimedOut) instead of fitting a model to the
 * empty moments of its skipped shards, whose zero sigma aborts.
 */
TEST(Watchdog, StoppedMonteCarloFitReturns)
{
    McSpec mc;
    mc.trials = 100000;
    mc.fit_trials = 100000;
    StopFlag stop(nullptr, 1e-9); // a deadline long past
    runMcCell(mc, {}, &stop);
    EXPECT_TRUE(stop.stopped());
    EXPECT_EQ(stop.reason(), StopReason::Deadline);
}

/** Cancellation before any claim leaves every cell Cancelled. */
TEST(Cancellation, PreCancelledRunSchedulesNothing)
{
    const ExperimentSpec spec = smallSpec();
    CancelToken cancel;
    cancel.requestCancel();
    RunControl control;
    control.cancel = &cancel;
    ExperimentResult res =
        runExperiment(spec, nullptr, {}, control);
    EXPECT_TRUE(res.interrupted);
    EXPECT_EQ(res.ok_cells, 0u);
    EXPECT_EQ(res.cancelled_cells,
              static_cast<uint64_t>(res.cells));
}

} // anonymous namespace
} // namespace rtm
