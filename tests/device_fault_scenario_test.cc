/**
 * @file
 * Unit tests for composable fault scenarios (non-i.i.d. regimes).
 */

#include <gtest/gtest.h>

#include <memory>

#include "device/fault_scenario.hh"

namespace rtm
{
namespace
{

std::shared_ptr<const PositionErrorModel>
acceleratedModel(double scale = 2000.0)
{
    auto base = std::make_shared<PaperCalibratedErrorModel>();
    return std::make_shared<ScaledErrorModel>(base, scale);
}

TEST(FaultScenario, DeterministicUnderSameSeed)
{
    ScenarioSpec spec;
    spec.kind = ScenarioKind::Burst;
    auto a = makeScenario(spec, acceleratedModel());
    auto b = makeScenario(spec, acceleratedModel());
    Rng rng_a(42), rng_b(42);
    for (int i = 0; i < 500; ++i) {
        ShiftOutcome oa = a->sample(rng_a, 3, true);
        ShiftOutcome ob = b->sample(rng_b, 3, true);
        EXPECT_EQ(oa.step_error, ob.step_error) << "sample " << i;
        EXPECT_EQ(oa.stop_in_middle, ob.stop_in_middle);
    }
    EXPECT_EQ(a->ledger().injected, b->ledger().injected);
}

TEST(FaultScenario, BurstInjectsMoreThanIid)
{
    auto model = acceleratedModel();
    IidScenario iid(model);
    BurstScenario burst(model, 64, 8, 50.0);
    Rng rng_a(7), rng_b(7);
    for (int i = 0; i < 4000; ++i) {
        iid.sample(rng_a, 2, true);
        burst.sample(rng_b, 2, true);
    }
    EXPECT_GT(burst.ledger().injected, iid.ledger().injected);
    EXPECT_EQ(burst.ledger().samples, 4000u);
}

TEST(FaultScenario, StuckWindowUndershootsByExactlyOne)
{
    auto zero = std::make_shared<ScriptedErrorModel>();
    StuckStripeScenario stuck(zero, 2, 3);
    Rng rng(1);
    for (int i = 0; i < 8; ++i) {
        bool in_window = i >= 2 && i < 5;
        EXPECT_EQ(stuck.stuck(), in_window) << "sample " << i;
        ShiftOutcome out = stuck.sample(rng, 1, true);
        EXPECT_EQ(out.step_error, in_window ? -1 : 0);
        EXPECT_FALSE(out.stop_in_middle);
    }
    EXPECT_EQ(stuck.ledger().samples, 8u);
    EXPECT_EQ(stuck.ledger().injected, 3u);
    EXPECT_EQ(stuck.ledger().step_errors, 3u);
    EXPECT_EQ(stuck.ledger().stop_in_middle, 0u);
}

TEST(FaultScenario, DroopStrandsWallsWithoutSts)
{
    auto zero = std::make_shared<ScriptedErrorModel>();
    DroopScenario droop(zero, 4, 4, 1.0); // always droop
    Rng rng(3);
    ShiftOutcome raw = droop.sample(rng, 2, false);
    EXPECT_TRUE(raw.stop_in_middle);
    EXPECT_EQ(raw.step_error, -1);
    ShiftOutcome sts = droop.sample(rng, 2, true);
    EXPECT_FALSE(sts.stop_in_middle);
    EXPECT_EQ(sts.step_error, -1);
    EXPECT_EQ(droop.ledger().stop_in_middle, 1u);
    EXPECT_EQ(droop.ledger().step_errors, 1u);
}

TEST(FaultScenario, CloneStartsAFreshTimeline)
{
    auto zero = std::make_shared<ScriptedErrorModel>();
    StuckStripeScenario stuck(zero, 1, 2);
    Rng rng(5);
    for (int i = 0; i < 4; ++i)
        stuck.sample(rng, 1, true); // advance past the window
    EXPECT_EQ(stuck.ledger().injected, 2u);

    std::unique_ptr<FaultScenario> copy = stuck.clone();
    EXPECT_EQ(copy->ledger().samples, 0u);
    Rng rng2(5);
    // The clone's window opens at sample 1 again.
    EXPECT_EQ(copy->sample(rng2, 1, true).step_error, 0);
    EXPECT_EQ(copy->sample(rng2, 1, true).step_error, -1);
}

TEST(FaultScenario, ProbabilityQueriesDelegateToBase)
{
    auto model = acceleratedModel();
    BurstScenario burst(model, 64, 8, 50.0);
    for (int d = 1; d <= 4; ++d) {
        for (int k = -2; k <= 2; ++k) {
            if (k == 0)
                continue;
            EXPECT_DOUBLE_EQ(burst.logProbStep(d, k),
                             model->logProbStep(d, k));
        }
        EXPECT_DOUBLE_EQ(burst.logProbStopInMiddle(d, 0),
                         model->logProbStopInMiddle(d, 0));
    }
    EXPECT_EQ(burst.maxStepError(), model->maxStepError());
}

TEST(FaultScenario, SkewFactorIsDeterministicPerStripe)
{
    EXPECT_DOUBLE_EQ(skewFactorFor(7, 0.6), skewFactorFor(7, 0.6));
    EXPECT_NE(skewFactorFor(7, 0.6), skewFactorFor(8, 0.6));
    EXPECT_GT(skewFactorFor(7, 0.6), 0.0);

    auto model = acceleratedModel();
    SkewScenario skew(model, 7, 0.6);
    EXPECT_DOUBLE_EQ(skew.factor(), skewFactorFor(7, 0.6));
}

TEST(FaultScenario, CatalogueCoversEveryRegime)
{
    std::vector<ScenarioSpec> specs = standardScenarios();
    ASSERT_EQ(specs.size(), 5u);
    auto model = acceleratedModel();
    for (const ScenarioSpec &spec : specs) {
        std::unique_ptr<FaultScenario> s =
            makeScenario(spec, model);
        EXPECT_EQ(spec.name, s->name());
        Rng rng(9);
        s->sample(rng, 1, true);
        EXPECT_EQ(s->ledger().samples, 1u);
    }
}

TEST(FaultScenario, LedgerMergeSums)
{
    InjectionLedger a{10, 4, 3, 1};
    InjectionLedger b{5, 2, 2, 0};
    a.merge(b);
    EXPECT_EQ(a.samples, 15u);
    EXPECT_EQ(a.injected, 6u);
    EXPECT_EQ(a.step_errors, 5u);
    EXPECT_EQ(a.stop_in_middle, 1u);
}

} // namespace
} // namespace rtm
