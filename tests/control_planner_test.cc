/**
 * @file
 * Unit tests for safe distances and the shift-sequence planner
 * (Algorithm 1, Table 3).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "control/planner.hh"
#include "device/error_model.hh"

namespace rtm
{
namespace
{

StsTiming
peccTiming()
{
    return StsTiming(kDefaultClockHz, 0.4e-9, 1.0e-9, 0.34e-9);
}

class PlannerFixture : public ::testing::Test
{
  protected:
    PaperCalibratedErrorModel model_;
    StsTiming timing_ = peccTiming();
    ShiftPlanner planner_{&model_, timing_, 1, 7};
};

TEST_F(PlannerFixture, FailRateIsUncorrectableMass)
{
    // With SECDED (m=1) the per-shift failure rate is the |k|>=2
    // mass: exactly the Table 2 k=2 column (k=3 is 1e-7 smaller).
    EXPECT_NEAR(std::exp(planner_.logFailRate(1)), 1.37e-21,
                1e-23);
    EXPECT_NEAR(std::exp(planner_.logFailRate(7)), 7.57e-15,
                1e-17);
}

TEST_F(PlannerFixture, Table3aSafeDistances)
{
    // Paper Table 3(a): intensity -> safe distance.
    EXPECT_EQ(planner_.safeDistance(4.53e9), 1);
    EXPECT_EQ(planner_.safeDistance(518e6), 2);
    EXPECT_EQ(planner_.safeDistance(111e6), 3);
    EXPECT_EQ(planner_.safeDistance(34.3e6), 4);
    EXPECT_EQ(planner_.safeDistance(13.9e6), 5);
    EXPECT_EQ(planner_.safeDistance(621e3), 6);
    EXPECT_EQ(planner_.safeDistance(0.82e3), 7);
}

TEST_F(PlannerFixture, PaperSafeDistanceForLlc)
{
    // Sec. 5.2: an 83M-accesses/s racetrack LLC gets safe distance 3.
    EXPECT_EQ(planner_.safeDistance(83e6), 3);
}

TEST_F(PlannerFixture, ParetoFrontOfSevenContainsTable3b)
{
    // Every row of the paper's Table 3(b) must appear on the Pareto
    // front with its published latency and (within rounding of the
    // back-solved reliability constant) its interval threshold. The
    // exhaustive front also finds {5,2} at 12 cycles, a genuinely
    // Pareto-optimal sequence the paper's table omits, so we assert
    // containment rather than equality.
    const auto &front = planner_.paretoFront(7);
    ASSERT_GE(front.size(), 7u);
    ASSERT_LE(front.size(), 9u);
    const std::vector<std::vector<int>> expected_parts = {
        {7},       {4, 3},       {3, 2, 2},       {2, 2, 2, 1},
        {2, 2, 1, 1, 1}, {2, 1, 1, 1, 1, 1}, {1, 1, 1, 1, 1, 1, 1}};
    const std::vector<Cycles> expected_latency = {9,  13, 16, 19,
                                                  22, 25, 28};
    const std::vector<Cycles> expected_interval = {2445260, 76, 26,
                                                   12, 9, 6, 3};
    for (size_t row = 0; row < expected_parts.size(); ++row) {
        bool found = false;
        for (const auto &plan : front) {
            std::vector<int> parts = plan.parts;
            std::sort(parts.rbegin(), parts.rend());
            if (parts != expected_parts[row])
                continue;
            found = true;
            EXPECT_EQ(plan.latency, expected_latency[row])
                << "row " << row;
            EXPECT_NEAR(
                static_cast<double>(plan.min_interval),
                static_cast<double>(expected_interval[row]),
                0.05 * static_cast<double>(expected_interval[row]) +
                    2.0)
                << "row " << row;
        }
        EXPECT_TRUE(found) << "Table 3(b) row " << row
                           << " missing from the front";
    }
}

TEST_F(PlannerFixture, FrontIsParetoOrdered)
{
    for (int d = 1; d <= 7; ++d) {
        const auto &front = planner_.paretoFront(d);
        ASSERT_FALSE(front.empty());
        for (size_t i = 1; i < front.size(); ++i) {
            EXPECT_GT(front[i].latency, front[i - 1].latency);
            EXPECT_LT(front[i].log_fail_rate,
                      front[i - 1].log_fail_rate);
        }
    }
}

TEST_F(PlannerFixture, PartsSumToDistance)
{
    for (int d = 1; d <= 7; ++d) {
        for (const auto &plan : planner_.paretoFront(d)) {
            int sum = 0;
            for (int p : plan.parts)
                sum += p;
            EXPECT_EQ(sum, d);
        }
    }
}

TEST_F(PlannerFixture, PlanForPicksFastestSafeSequence)
{
    // Table 3(b): at interval 76 cycles the {4,3} split is the
    // fastest safe option; at 3 cycles only all-ones survives; at a
    // huge interval the one-shot {7} wins.
    const SequencePlan &fast = planner_.planFor(7, 10000000);
    EXPECT_EQ(fast.parts.size(), 1u);
    const SequencePlan &mid = planner_.planFor(7, 76);
    EXPECT_EQ(mid.parts.size(), 2u);
    const SequencePlan &slow = planner_.planFor(7, 3);
    EXPECT_EQ(slow.parts.size(), 7u);
}

TEST_F(PlannerFixture, PlanForFallsBackToSafest)
{
    // Interval 0: nothing is "safe"; the planner returns the most
    // reliable decomposition instead of refusing.
    const SequencePlan &p = planner_.planFor(7, 0);
    EXPECT_EQ(p.parts.size(), 7u);
}

TEST_F(PlannerFixture, PlanForIntensityMatchesInterval)
{
    // 2 GHz / 76 cycles ~ 26.3M ops/s.
    const SequencePlan &p = planner_.planForIntensity(7, 26.3e6);
    EXPECT_EQ(p.parts.size(), 2u);
}

TEST(Planner, SedPlannerTreatsAllErrorsAsFailures)
{
    PaperCalibratedErrorModel model;
    StsTiming timing = peccTiming();
    ShiftPlanner planner(&model, timing, 0, 7);
    // m=0: |k|>=1 fails; rate is the k=1 column.
    EXPECT_NEAR(std::exp(planner.logFailRate(7)), 1.10e-3, 1e-5);
    // Safe distances collapse accordingly.
    EXPECT_EQ(planner.safeDistance(83e6), 1);
}

TEST(Planner, ZeroModelMakesEverythingSafe)
{
    ScriptedErrorModel model;
    StsTiming timing = peccTiming();
    ShiftPlanner planner(&model, timing, 1, 7);
    EXPECT_EQ(planner.safeDistance(1e12), 7);
    const auto &front = planner.paretoFront(7);
    // With no errors the one-shot plan dominates everything.
    EXPECT_EQ(front.size(), 1u);
    EXPECT_EQ(front[0].parts, std::vector<int>{7});
}

TEST(Planner, LongSegmentsPlanWithExtrapolatedRates)
{
    PaperCalibratedErrorModel model;
    StsTiming timing = peccTiming();
    ShiftPlanner planner(&model, timing, 1, 63);
    const SequencePlan &p = planner.planFor(63, 1000);
    int sum = 0;
    for (int part : p.parts)
        sum += part;
    EXPECT_EQ(sum, 63);
    // At a modest interval long one-shot shifts are unsafe.
    EXPECT_GT(p.parts.size(), 1u);
}

} // namespace
} // namespace rtm
