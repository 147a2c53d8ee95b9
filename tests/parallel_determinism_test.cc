/**
 * @file
 * Determinism of the parallel execution paths: Monte-Carlo run() /
 * fitModel() and the matrix runner must produce bit-identical results
 * at any worker count (sharded RNG, ordered reduction), so RTM_THREADS
 * only ever affects wall-clock. Each case computes once with a
 * one-thread global pool and once with four, then compares exactly.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <latch>
#include <stdexcept>
#include <string>
#include <thread>

#include "device/montecarlo.hh"
#include "matrix_sweep.hh"
#include "sim/runner.hh"
#include "trace/trace_file.hh"
#include "util/parallel.hh"

namespace rtm
{
namespace
{

/** Evaluate fn under an explicit global worker count. */
template <typename Fn>
auto
withThreads(unsigned threads, Fn fn)
{
    unsigned before = ThreadPool::global().threads();
    ThreadPool::setGlobalThreads(threads);
    auto result = fn();
    ThreadPool::setGlobalThreads(before);
    return result;
}

void
expectIdentical(const ErrorPdf &a, const ErrorPdf &b)
{
    EXPECT_EQ(a.distance, b.distance);
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.step_counts.entries(), b.step_counts.entries());
    EXPECT_EQ(a.middle_counts.entries(),
              b.middle_counts.entries());
    // Bit-identical moments, not just approximately equal: the
    // reduction order is fixed by shard index.
    EXPECT_EQ(a.deviation.count(), b.deviation.count());
    EXPECT_EQ(a.deviation.mean(), b.deviation.mean());
    EXPECT_EQ(a.deviation.variance(), b.deviation.variance());
    EXPECT_EQ(a.deviation.min(), b.deviation.min());
    EXPECT_EQ(a.deviation.max(), b.deviation.max());
}

TEST(ParallelDeterminism, MonteCarloRunMatchesSerial)
{
    DeviceParams p;
    auto sample = [&] {
        PositionErrorMonteCarlo mc(p, 20150613);
        return mc.run(7, 30000);
    };
    ErrorPdf serial = withThreads(1, sample);
    ErrorPdf parallel = withThreads(4, sample);
    expectIdentical(serial, parallel);
    EXPECT_EQ(serial.trials, 30000u);
}

TEST(ParallelDeterminism, BackToBackRunsStayDeterministic)
{
    // Forking shard RNGs advances the master stream; two consecutive
    // run() calls must replay identically from a fresh object.
    DeviceParams p;
    auto sample = [&](unsigned threads) {
        return withThreads(threads, [&] {
            PositionErrorMonteCarlo mc(p, 7);
            ErrorPdf first = mc.run(1, 5000);
            ErrorPdf second = mc.run(4, 5000);
            (void)first;
            return second;
        });
    };
    expectIdentical(sample(1), sample(4));
}

TEST(ParallelDeterminism, FitModelMatchesSerial)
{
    DeviceParams p;
    auto fit = [&] {
        PositionErrorMonteCarlo mc(p, 99);
        return mc.fitModel(20000);
    };
    FittedErrorModel serial = withThreads(1, fit);
    FittedErrorModel parallel = withThreads(4, fit);
    EXPECT_EQ(serial.params().sigma_step,
              parallel.params().sigma_step);
    EXPECT_EQ(serial.params().resync_rho,
              parallel.params().resync_rho);
    EXPECT_EQ(serial.params().drift, parallel.params().drift);
    EXPECT_EQ(serial.params().notch_half_width,
              parallel.params().notch_half_width);
}

void
expectIdentical(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.llc_tech, b.llc_tech);
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.mem_ops, b.mem_ops);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.cache_dynamic_energy, b.cache_dynamic_energy);
    EXPECT_EQ(a.llc_shift_energy, b.llc_shift_energy);
    EXPECT_EQ(a.dram_energy, b.dram_energy);
    EXPECT_EQ(a.leakage_energy, b.leakage_energy);
    EXPECT_EQ(a.llc_accesses, b.llc_accesses);
    EXPECT_EQ(a.llc_misses, b.llc_misses);
    EXPECT_EQ(a.shift_ops, b.shift_ops);
    EXPECT_EQ(a.shift_steps, b.shift_steps);
    EXPECT_EQ(a.shift_cycles, b.shift_cycles);
    EXPECT_EQ(a.migrations, b.migrations);
    EXPECT_EQ(a.migration_steps, b.migration_steps);
    EXPECT_EQ(a.sdc_mttf, b.sdc_mttf);
    EXPECT_EQ(a.due_mttf, b.due_mttf);
}

TEST(ParallelDeterminism, RunMatrixMatchesSerialAndKeepsOrder)
{
    PaperCalibratedErrorModel model;
    std::vector<LlcOption> options = {
        {"Baseline", MemTech::Racetrack, Scheme::Baseline},
        {"p-ECC-O", MemTech::Racetrack, Scheme::PeccO},
    };
    auto sweep = [&] {
        return sweepMatrix(options, &model, 2000, 400, 32);
    };
    auto serial = withThreads(1, sweep);
    auto parallel = withThreads(4, sweep);
    ASSERT_EQ(serial.size(), parallel.size());
    ASSERT_EQ(serial.size(), parsecProfiles().size());
    for (size_t w = 0; w < serial.size(); ++w) {
        EXPECT_EQ(serial[w].profile.name, parallel[w].profile.name);
        ASSERT_EQ(serial[w].results.size(), options.size());
        ASSERT_EQ(parallel[w].results.size(), options.size());
        for (size_t o = 0; o < options.size(); ++o) {
            expectIdentical(serial[w].results[o],
                            parallel[w].results[o]);
            // Ordering: cell (w, o) really holds option o.
            EXPECT_EQ(serial[w].results[o].scheme,
                      options[o].scheme);
        }
    }
}

TEST(ParallelDeterminism, PlacementPoliciesMatchSerial)
{
    // The dynamic placement policies keep per-bank mutable state
    // (epoch counters, slot tables, migration scratch); each cell
    // owns its bank, so a threaded sweep must replay the serial one
    // bit for bit — migrations included. This is also the TSan
    // coverage for the epoch-counter path.
    PaperCalibratedErrorModel model;
    LlcOption adaptive{"RM adaptive", MemTech::Racetrack,
                       Scheme::PeccSAdaptive};
    adaptive.placement = PlacementKind::Adaptive;
    adaptive.placement_epoch = 16;
    adaptive.placement_swap_budget = 4;
    LlcOption hot{"RM hot-center predictive", MemTech::Racetrack,
                  Scheme::PeccSAdaptive};
    hot.placement = PlacementKind::HotCenter;
    hot.placement_epoch = 16;
    hot.head_policy = HeadPolicy::Predictive;
    std::vector<LlcOption> options = {adaptive, hot};

    auto sweep = [&] {
        return sweepMatrix(options, &model, 2000, 400, 32);
    };
    auto serial = withThreads(1, sweep);
    auto parallel = withThreads(4, sweep);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t w = 0; w < serial.size(); ++w) {
        ASSERT_EQ(serial[w].results.size(), options.size());
        for (size_t o = 0; o < options.size(); ++o)
            expectIdentical(serial[w].results[o],
                            parallel[w].results[o]);
    }
}

/**
 * Two profile rows and a trace row over four options (one with a
 * dynamic placement); warmup and request counts that leave partial
 * chunks.
 */
ExperimentSpec
sharedRowSpec()
{
    ExperimentSpec spec;
    spec.name = "row-shared-front-end";
    spec.matrix.requests = 6000;
    spec.matrix.warmup = 1500;
    spec.matrix.divisor = 32;
    spec.matrix.workloads = {"canneal", "swaptions"};
    spec.matrix.traces = {std::string(RTM_REPO_DIR) +
                          "/tests/traces/small.trace"};
    LlcOption hot{"RM hot-center predictive", MemTech::Racetrack,
                  Scheme::PeccSAdaptive};
    hot.placement = PlacementKind::HotCenter;
    hot.placement_epoch = 16;
    hot.head_policy = HeadPolicy::Predictive;
    spec.matrix.options = {
        {"SRAM", MemTech::SRAM, Scheme::Baseline},
        hot,
        {"RM-Ideal", MemTech::RacetrackIdeal, Scheme::Baseline},
        {"RM p-ECC-O", MemTech::Racetrack, Scheme::PeccO},
    };
    normalizeExperimentSpec(&spec);
    return spec;
}

TEST(ParallelDeterminism, RowSharedFrontEndMatchesStandaloneCells)
{
    // The cells of a matrix row share one L1/L2 outcome log; each
    // must still equal its own standalone simulation, whichever cell
    // built which chunk, and across a retry and a resume.
    PaperCalibratedErrorModel model;
    const ExperimentSpec spec = sharedRowSpec();
    const size_t options = spec.matrix.options.size();
    const size_t profiles = spec.matrix.workloads.size();
    const TraceParseResult trace = loadTraceFileChecked(
        spec.matrix.traces[0], HierarchyConfig{}.cores);
    ASSERT_TRUE(trace.ok());

    std::vector<std::vector<SimResult>> standalone(profiles + 1);
    for (size_t row = 0; row <= profiles; ++row) {
        for (const LlcOption &opt : spec.matrix.options) {
            const SimConfig cfg = matrixSimConfig(spec, opt);
            standalone[row].push_back(
                row < profiles
                    ? simulate(scaledProfile(
                                   parsecProfile(spec.matrix.workloads[row]),
                                   spec.matrix.divisor),
                               cfg, &model)
                    : simulateTrace(spec.matrix.traces[0],
                                    trace.requests, cfg, &model));
        }
    }

    std::string want;
    for (unsigned threads : {1u, 4u}) {
        const ExperimentResult res = withThreads(
            threads, [&] { return runExperiment(spec, &model); });
        ASSERT_TRUE(res.complete());
        ASSERT_EQ(res.matrix.size(), profiles + 1);
        for (size_t row = 0; row <= profiles; ++row)
            for (size_t o = 0; o < options; ++o)
                EXPECT_TRUE(res.matrix[row].results[o] ==
                            standalone[row][o])
                    << "threads=" << threads << " row " << row
                    << " option " << spec.matrix.options[o].label;
        if (want.empty())
            want = experimentResultDigest(res);
        EXPECT_EQ(experimentResultDigest(res), want);
    }

    // A cell in the middle of a row fails its first attempt and is
    // retried after its row-mates have moved on.
    ExperimentSpec retry_spec = spec;
    retry_spec.resilience.retry_budget = 1;
    retry_spec.resilience.backoff_ms = 1;
    const size_t middle = options + 1;
    RunControl retry;
    retry.fault_hook = [middle](size_t index, int attempt) {
        if (index == middle && attempt == 1)
            throw std::runtime_error("transient");
    };
    const ExperimentResult retried = withThreads(4, [&] {
        return runExperiment(retry_spec, &model, {}, retry);
    });
    EXPECT_TRUE(retried.complete());
    EXPECT_EQ(retried.outcomes[middle].attempts, 2);
    EXPECT_EQ(experimentResultDigest(retried), want);

    // Interrupted after part of the first row, then resumed: the
    // row's remaining cells share a log with fewer consumers.
    const std::string journal =
        std::string(::testing::TempDir()) + "row_shared_resume.jsonl";
    for (unsigned threads : {1u, 4u}) {
        for (size_t kill_after : {1u, 2u}) {
            std::remove(journal.c_str());
            CancelToken cancel;
            std::atomic<size_t> done{0};
            RunControl interrupt;
            interrupt.cancel = &cancel;
            interrupt.stream_path = journal;
            interrupt.on_cell = [&](size_t, const CellOutcome &o) {
                if (o.status == CellStatus::Ok && ++done >= kill_after)
                    cancel.requestCancel();
            };
            const ExperimentResult cut = withThreads(threads, [&] {
                return runExperiment(spec, &model, {}, interrupt);
            });
            ASSERT_GE(cut.ok_cells, kill_after);

            RunControl resume;
            resume.resume_path = journal;
            resume.stream_path = journal;
            const ExperimentResult full = withThreads(threads, [&] {
                return runExperiment(spec, &model, {}, resume);
            });
            EXPECT_TRUE(full.complete());
            EXPECT_EQ(full.replayed_cells, cut.ok_cells);
            EXPECT_EQ(experimentResultDigest(full), want)
                << "threads=" << threads << " kill_after=" << kill_after;
        }
    }
    std::remove(journal.c_str());
}

TEST(ParallelDeterminism, RowLogThreadedConsumersMatchStandalone)
{
    // One thread per option consumes one row log. All but the last
    // start together and race for the frontier from chunk 0 (their
    // cheap back ends keep them abreast); the last, a racetrack
    // option, starts only once the first has finished, so it reads
    // every chunk without locking.
    PaperCalibratedErrorModel model;
    const ExperimentSpec spec = sharedRowSpec();
    const LlcOption sram{"SRAM", MemTech::SRAM, Scheme::Baseline};
    const LlcOption stt{"STT-RAM", MemTech::STTRAM, Scheme::Baseline};
    const std::vector<LlcOption> options = {sram, stt, sram, stt,
                                            spec.matrix.options.back()};
    const WorkloadProfile profile = scaledProfile(
        parsecProfile(spec.matrix.workloads[0]), spec.matrix.divisor);
    std::vector<SimResult> standalone;
    for (const LlcOption &opt : options)
        standalone.push_back(
            simulate(profile, matrixSimConfig(spec, opt), &model));

    const SimConfig row = matrixSimConfig(spec, options[0]);
    ChunkPool pool;
    FrontEndLog log(row, RequestStream(profile, row.hierarchy.cores, row.seed),
                    options.size(), pool);
    std::vector<SimResult> shared(options.size());
    std::latch start(static_cast<std::ptrdiff_t>(options.size() - 1));
    auto consume = [&](size_t o) {
        if (o + 1 < options.size())
            start.arrive_and_wait();
        shared[o] = simulate(profile, matrixSimConfig(spec, options[o]),
                             &model, &log);
        log.release();
    };
    std::thread first(consume, 0);
    std::vector<std::thread> racing;
    for (size_t o = 1; o + 1 < options.size(); ++o)
        racing.emplace_back(consume, o);
    first.join();
    std::thread last(consume, options.size() - 1);
    for (std::thread &t : racing)
        t.join();
    last.join();
    for (size_t o = 0; o < options.size(); ++o)
        EXPECT_TRUE(shared[o] == standalone[o]) << options[o].label;
}

} // namespace
} // namespace rtm
