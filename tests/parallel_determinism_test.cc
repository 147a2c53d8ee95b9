/**
 * @file
 * Determinism of the parallel execution paths: Monte-Carlo run() /
 * fitModel() and the matrix runner must produce bit-identical results
 * at any worker count (sharded RNG, ordered reduction), so RTM_THREADS
 * only ever affects wall-clock. Each case computes once with a
 * one-thread global pool and once with four, then compares exactly.
 */

#include <gtest/gtest.h>

#include "device/montecarlo.hh"
#include "matrix_sweep.hh"
#include "sim/runner.hh"
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

} // namespace
} // namespace rtm
