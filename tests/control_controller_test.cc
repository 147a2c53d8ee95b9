/**
 * @file
 * Unit tests for the position-error-aware shift controller: access
 * semantics, latency accounting, stats, and fault handling.
 */

#include <gtest/gtest.h>

#include <memory>

#include "control/controller.hh"

namespace rtm
{
namespace
{

PeccConfig
secdedConfig(PeccVariant variant = PeccVariant::Standard)
{
    PeccConfig c;
    c.num_segments = 2;
    c.seg_len = 8;
    c.correct = 1;
    c.variant = variant;
    return c;
}

TEST(Controller, ReadBackAfterWrite)
{
    ZeroErrorModel model;
    ShiftController ctl(secdedConfig(), &model,
                        ShiftPolicy::Adaptive, 83e6, Rng(1));
    ctl.initialize();
    Cycles t = 0;
    ctl.write(0, 3, Bit::One, t);
    t += 100;
    ctl.write(1, 5, Bit::One, t);
    t += 100;
    AccessResult r = ctl.read(0, 3, t);
    EXPECT_EQ(r.value, Bit::One);
    t += 100;
    EXPECT_EQ(ctl.read(1, 5, t).value, Bit::One);
    t += 100;
    EXPECT_EQ(ctl.read(0, 0, t).value, Bit::Zero);
}

TEST(Controller, DelInsWritesReadBackThroughTheDecodedImage)
{
    // A del-ins access decodes the whole stripe: a write patches the
    // decoded track codewords (check bits re-derived) and writes them
    // back, so every data position reads back what was written.
    PeccConfig c = secdedConfig(PeccVariant::DelIns);
    c.num_segments = 8;
    ZeroErrorModel model;
    ShiftController ctl(c, &model, ShiftPolicy::Adaptive, 83e6,
                        Rng(9));
    ctl.initialize();
    const DelInsCode &code = *ctl.stripe().delInsCode();
    Cycles t = 0;
    for (int seg = 0; seg < c.num_segments; ++seg)
        for (int idx = 0; idx < c.seg_len; ++idx) {
            if (code.isCheckPosition(idx))
                continue;
            const Bit v = (seg + idx) % 3 == 0 ? Bit::One : Bit::Zero;
            EXPECT_FALSE(ctl.write(seg, idx, v, t += 100).due);
            const AccessResult r = ctl.read(seg, idx, t += 100);
            EXPECT_FALSE(r.due);
            EXPECT_EQ(r.value, v) << "segment " << seg << " index "
                                  << idx;
        }
    EXPECT_EQ(ctl.stats().detected_errors, 0u);
}

TEST(Controller, NoShiftWhenAlreadyAligned)
{
    ZeroErrorModel model;
    ShiftController ctl(secdedConfig(), &model,
                        ShiftPolicy::Adaptive, 83e6, Rng(2));
    ctl.initialize();
    ctl.read(0, 4, 0);
    uint64_t ops = ctl.stats().shift_ops;
    AccessResult r = ctl.read(1, 4, 100);
    EXPECT_EQ(ctl.stats().shift_ops, ops);
    EXPECT_EQ(r.latency, 0u);
}

TEST(Controller, LatencyMatchesPlannedSequence)
{
    ZeroErrorModel model;
    ShiftController ctl(secdedConfig(), &model,
                        ShiftPolicy::Adaptive, 83e6, Rng(3));
    ctl.initialize();
    // First access: index 7 -> 0 steps (home). Index 0 -> 7 steps;
    // no history means the one-shot {7} plan: 9 cycles with check.
    AccessResult r = ctl.read(0, 0, 0);
    EXPECT_EQ(r.latency, 9u);
}

TEST(Controller, AdaptiveSlowsUnderPressure)
{
    // Needs real error rates: with a zero-error model every distance
    // is safe and the adapter never decomposes anything.
    PaperCalibratedErrorModel model;
    ShiftController ctl(secdedConfig(), &model,
                        ShiftPolicy::Adaptive, 83e6, Rng(4));
    ctl.initialize();
    ctl.read(0, 0, 0);  // to offset 7
    // Immediately back (interval ~ latency): must decompose.
    AccessResult r = ctl.read(0, 7, 10);
    EXPECT_GT(r.latency, 9u);
    EXPECT_GT(ctl.stats().shift_ops, 2u);
}

TEST(Controller, StatsAccumulate)
{
    ZeroErrorModel model;
    ShiftController ctl(secdedConfig(), &model,
                        ShiftPolicy::Adaptive, 83e6, Rng(5));
    ctl.initialize();
    Cycles t = 0;
    for (int i = 0; i < 8; ++i) {
        ctl.read(0, i % 8, t);
        t += 1000000; // relaxed intensity
    }
    const ControllerStats &s = ctl.stats();
    EXPECT_GT(s.accesses, 0u);
    EXPECT_GT(s.shift_ops, 0u);
    EXPECT_GT(s.shift_steps, 0u);
    EXPECT_GT(s.busy_cycles, 0u);
    EXPECT_EQ(s.unrecoverable, 0u);
    EXPECT_EQ(s.silent_errors, 0u);
    EXPECT_GT(s.distance_histogram.total(), 0u);
}

TEST(Controller, DetectsAndCorrectsInjectedError)
{
    auto model = std::make_unique<ScriptedErrorModel>(
        std::vector<ShiftOutcome>{{+1, false}});
    ShiftController ctl(secdedConfig(), model.get(),
                        ShiftPolicy::Adaptive, 83e6, Rng(6));
    ctl.initialize();
    AccessResult r = ctl.read(0, 0, 0);
    EXPECT_FALSE(r.due);
    EXPECT_TRUE(r.position_ok);
    EXPECT_EQ(ctl.stats().detected_errors, 1u);
    EXPECT_EQ(ctl.stats().corrected_errors, 1u);
    // Correction latency was charged on top of the plan.
    EXPECT_GT(r.latency, 9u);
}

TEST(Controller, ReportsDueOnUncorrectableError)
{
    auto model = std::make_unique<ScriptedErrorModel>(
        std::vector<ShiftOutcome>{{+2, false}});
    ShiftController ctl(secdedConfig(), model.get(),
                        ShiftPolicy::Adaptive, 83e6, Rng(7));
    ctl.initialize();
    AccessResult r = ctl.read(0, 0, 0);
    EXPECT_TRUE(r.due);
    EXPECT_EQ(ctl.stats().unrecoverable, 1u);
}

TEST(Controller, BaselineCountsSilentErrors)
{
    auto model = std::make_unique<ScriptedErrorModel>(
        std::vector<ShiftOutcome>{{+1, false}});
    PeccConfig c = secdedConfig(PeccVariant::None);
    ShiftController ctl(c, model.get(), ShiftPolicy::Unconstrained,
                        83e6, Rng(8));
    ctl.initialize();
    AccessResult r = ctl.read(0, 0, 0);
    EXPECT_FALSE(r.due);
    EXPECT_FALSE(r.position_ok);
    EXPECT_EQ(ctl.stats().silent_errors, 1u);
}

TEST(Controller, PeccOForcesStepByStep)
{
    ZeroErrorModel model;
    ShiftController ctl(secdedConfig(PeccVariant::OverheadRegion),
                        &model, ShiftPolicy::Adaptive, 83e6, Rng(9));
    ctl.initialize();
    ctl.read(0, 0, 0); // 7 steps away
    // Seven 1-step operations regardless of the requested policy.
    EXPECT_EQ(ctl.stats().shift_ops, 7u);
    EXPECT_EQ(ctl.stats().distance_histogram.count(1), 7u);
}

TEST(Controller, WorstCasePolicyCapsDistances)
{
    // Needs real error rates: the worst-case safe distance of 3 at
    // 83M ops/s comes from the Table 2 failure rates.
    PaperCalibratedErrorModel model;
    ShiftController ctl(secdedConfig(), &model,
                        ShiftPolicy::WorstCase, 83e6, Rng(10));
    ctl.initialize();
    ctl.read(0, 0, 0); // 7 steps: {3,3,1} under safe distance 3
    EXPECT_EQ(ctl.stats().distance_histogram.count(3), 2u);
    EXPECT_EQ(ctl.stats().distance_histogram.count(1), 1u);
}

TEST(Controller, FaultInjectionSoakStaysConsistent)
{
    auto base = std::make_shared<PaperCalibratedErrorModel>();
    ScaledErrorModel model(base, 300.0);
    ShiftController ctl(secdedConfig(), &model,
                        ShiftPolicy::Adaptive, 83e6, Rng(11));
    ctl.initialize();
    Rng dice(99);
    Cycles t = 0;
    for (int i = 0; i < 2000; ++i) {
        int idx = static_cast<int>(dice.uniformInt(8));
        int seg = static_cast<int>(dice.uniformInt(2));
        AccessResult r = ctl.read(seg, idx, t);
        t += 50 + dice.uniformInt(1000);
        if (!r.due) {
            EXPECT_TRUE(r.position_ok) << "op " << i;
        }
    }
    EXPECT_GT(ctl.stats().detected_errors, 0u);
    EXPECT_EQ(ctl.stats().silent_errors, 0u);
}

} // namespace
} // namespace rtm
