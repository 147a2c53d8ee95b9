/**
 * @file
 * Unit tests for the adaptive shift policy engine.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "control/adapter.hh"
#include "device/error_model.hh"

namespace rtm
{
namespace
{

class AdapterFixture : public ::testing::Test
{
  protected:
    PaperCalibratedErrorModel model_;
    StsTiming timing_{kDefaultClockHz, 0.4e-9, 1.0e-9, 0.34e-9};
    ShiftPlanner planner_{&model_, timing_, 1, 7};
};

TEST_F(AdapterFixture, UnconstrainedAlwaysOneShot)
{
    ShiftAdapter a(&planner_, ShiftPolicy::Unconstrained, 83e6);
    for (int d = 1; d <= 7; ++d) {
        ASSERT_EQ(a.plans(d).size(), 1u) << "d=" << d;
        EXPECT_EQ(a.plans(d)[0].parts, std::vector<int>{d});
        EXPECT_EQ(a.cautiousPlan(d).parts,
                  std::vector<int>(static_cast<size_t>(d), 1));
    }
    for (Cycles t : {0u, 10u, 1000u}) {
        EXPECT_EQ(a.choose(7, t), 0u);
        const SequencePlan &p = a.plan(7, t);
        EXPECT_EQ(p.parts, std::vector<int>{7});
    }
}

TEST_F(AdapterFixture, StepByStepDecomposesToOnes)
{
    ShiftAdapter a(&planner_, ShiftPolicy::StepByStep, 83e6);
    for (int d = 1; d <= 7; ++d) {
        ASSERT_EQ(a.plans(d).size(), 1u) << "d=" << d;
        EXPECT_EQ(a.plans(d)[0].parts,
                  std::vector<int>(static_cast<size_t>(d), 1));
    }
    const SequencePlan &p = a.plan(5, 100);
    EXPECT_EQ(p.parts, (std::vector<int>{1, 1, 1, 1, 1}));
}

TEST_F(AdapterFixture, WorstCaseUsesFixedSafeDistance)
{
    // 83M accesses/s -> safe distance 3 (paper Sec. 5.2).
    ShiftAdapter a(&planner_, ShiftPolicy::WorstCase, 83e6);
    EXPECT_EQ(a.worstCaseSafeDistance(), 3);
    const std::vector<std::vector<int>> expect = {
        {1}, {2}, {3}, {3, 1}, {3, 2}, {3, 3}, {3, 3, 1}};
    for (int d = 1; d <= 7; ++d) {
        ASSERT_EQ(a.plans(d).size(), 1u) << "d=" << d;
        EXPECT_EQ(a.plans(d)[0].parts,
                  expect[static_cast<size_t>(d - 1)]);
        EXPECT_EQ(a.cautiousPlan(d).parts,
                  std::vector<int>(static_cast<size_t>(d), 1));
    }
    const SequencePlan &p = a.plan(7, 1);
    EXPECT_EQ(p.parts, (std::vector<int>{3, 3, 1}));
}

TEST_F(AdapterFixture, AdaptiveRelaxesWithLongIntervals)
{
    ShiftAdapter a(&planner_, ShiftPolicy::Adaptive, 83e6);
    // The adapter table is the planner's Pareto front: the one-shot
    // plan first, the all-1-step plan last.
    for (int d = 1; d <= 7; ++d) {
        const std::vector<SequencePlan> &plans = a.plans(d);
        EXPECT_EQ(&plans, &planner_.paretoFront(d)) << "d=" << d;
        ASSERT_FALSE(plans.empty());
        EXPECT_EQ(plans.front().parts, std::vector<int>{d});
        EXPECT_EQ(plans.back().parts,
                  std::vector<int>(static_cast<size_t>(d), 1));
    }
    // First request: no history -> most permissive plan.
    const SequencePlan &first = a.plan(7, 0);
    EXPECT_EQ(first.parts.size(), 1u);
    // Back-to-back request (tiny interval): safest decomposition.
    const SequencePlan &hot = a.plan(7, 2);
    EXPECT_EQ(hot.parts.size(), 7u);
    // A long quiet period relaxes the constraint again.
    const SequencePlan &cold = a.plan(7, 2 + 5000000);
    EXPECT_EQ(cold.parts.size(), 1u);
}

TEST_F(AdapterFixture, IntervalTracking)
{
    ShiftAdapter a(&planner_, ShiftPolicy::Adaptive, 83e6);
    a.plan(3, 1000);
    a.plan(3, 1500);
    EXPECT_EQ(a.lastInterval(), 500u);
    a.plan(3, 1400); // time went backwards (clamped)
    EXPECT_EQ(a.lastInterval(), 0u);
}

TEST_F(AdapterFixture, WorstCaseLatencyBetweenExtremes)
{
    // Fig. 14's ordering: adaptive <= worst-case <= step-by-step in
    // shift latency for a burst of back-to-back long shifts after a
    // long idle period.
    ShiftAdapter uncon(&planner_, ShiftPolicy::Unconstrained, 83e6);
    ShiftAdapter worst(&planner_, ShiftPolicy::WorstCase, 83e6);
    ShiftAdapter steps(&planner_, ShiftPolicy::StepByStep, 83e6);
    Cycles lu = uncon.plan(7, 0).latency;
    Cycles lw = worst.plan(7, 0).latency;
    Cycles ls = steps.plan(7, 0).latency;
    EXPECT_LE(lu, lw);
    EXPECT_LE(lw, ls);
}

TEST_F(AdapterFixture, PlanReferencesSurviveTheNextRequest)
{
    // A returned plan is a table entry: a later request for another
    // distance must not rewrite it.
    ShiftAdapter a(&planner_, ShiftPolicy::WorstCase, 83e6);
    const SequencePlan &first = a.plan(7, 0);
    a.plan(2, 10);
    EXPECT_EQ(first.parts, (std::vector<int>{3, 3, 1}));
}

TEST_F(AdapterFixture, FixedPartsPlanAccounting)
{
    ShiftAdapter a(&planner_, ShiftPolicy::WorstCase, 83e6);
    const SequencePlan &p = a.plan(7, 0);
    // Latency equals the sum of per-part one-shot latencies.
    Cycles expect = timing_.shiftCycles(3) * 2 +
                    timing_.shiftCycles(1);
    EXPECT_EQ(p.latency, expect);
    // Fail rate equals the union of the parts' rates.
    double rate = std::exp(p.log_fail_rate);
    double manual = 2 * std::exp(planner_.logFailRate(3)) +
                    std::exp(planner_.logFailRate(1));
    EXPECT_NEAR(rate, manual, 1e-3 * manual);
}

} // namespace
} // namespace rtm
