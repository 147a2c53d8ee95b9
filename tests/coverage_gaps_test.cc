/**
 * @file
 * Coverage for paths the module suites exercise lightly: controller
 * writes under p-ECC-O, hierarchy core-count variants, the matrix
 * runner, layout phase math, stripe shift-and-write direction
 * semantics, and the capacity-divisor plumbing.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "codec/protected_stripe.hh"
#include "control/controller.hh"
#include "mem/hierarchy.hh"
#include "matrix_sweep.hh"
#include "sim/runner.hh"

namespace rtm
{
namespace
{

TEST(ControllerPeccO, WriteReadRoundTripUnderFaults)
{
    auto base = std::make_shared<PaperCalibratedErrorModel>();
    ScaledErrorModel model(base, 200.0);
    PeccConfig c;
    c.num_segments = 2;
    c.seg_len = 8;
    c.correct = 1;
    c.variant = PeccVariant::OverheadRegion;
    ShiftController ctl(c, &model, ShiftPolicy::Adaptive, 83e6,
                        Rng(77));
    ctl.initialize();
    Cycles t = 0;
    // Write a pattern, churn, read back.
    for (int idx = 0; idx < 8; ++idx) {
        ctl.write(0, idx, idx % 2 ? Bit::One : Bit::Zero, t);
        ctl.write(1, idx, idx % 3 ? Bit::One : Bit::Zero, t + 50);
        t += 2000;
    }
    Rng dice(5);
    for (int i = 0; i < 500; ++i) {
        ctl.read(static_cast<int>(dice.uniformInt(2)),
                 static_cast<int>(dice.uniformInt(8)), t);
        t += 1000;
    }
    EXPECT_EQ(ctl.stats().silent_errors, 0u);
    int mismatches = 0;
    for (int idx = 0; idx < 8; ++idx) {
        AccessResult r0 = ctl.read(0, idx, t);
        t += 2000;
        AccessResult r1 = ctl.read(1, idx, t);
        t += 2000;
        if (!r0.due &&
            r0.value != (idx % 2 ? Bit::One : Bit::Zero))
            ++mismatches;
        if (!r1.due &&
            r1.value != (idx % 3 ? Bit::One : Bit::Zero))
            ++mismatches;
    }
    EXPECT_EQ(mismatches, 0);
}

class CoreCountSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(CoreCountSweep, HierarchyScalesWithCores)
{
    int cores = GetParam();
    PaperCalibratedErrorModel model;
    HierarchyConfig cfg;
    cfg.cores = cores;
    cfg.llc_tech = MemTech::Racetrack;
    Hierarchy h(cfg, &model);
    // Every core can access; L1s are private.
    for (int core = 0; core < cores; ++core) {
        HierarchyAccess a =
            h.access(core, 0x1000 + 64 * core, false, 0);
        EXPECT_GT(a.latency, 0u);
    }
    for (int core = 0; core < cores; ++core)
        EXPECT_EQ(h.l1(core).stats().accesses(), 1u);
    // Leakage includes one L1 per core and one L2 per pair.
    double expect = cores * l1Params().leakage_watts +
                    ((cores + 1) / 2) * l2Params().leakage_watts +
                    racetrackL3().leakage_watts;
    EXPECT_NEAR(h.totalLeakageWatts(), expect, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Cores, CoreCountSweep,
                         ::testing::Values(1, 2, 4, 8));

TEST(CapacityDivisor, ShrinksEveryLevel)
{
    PaperCalibratedErrorModel model;
    HierarchyConfig cfg;
    cfg.llc_tech = MemTech::SRAM;
    cfg.capacity_divisor = 8;
    Hierarchy h(cfg, &model);
    EXPECT_EQ(h.l1(0).capacityBytes(),
              l1Params().capacity_bytes / 8);
    EXPECT_EQ(h.l2(0).capacityBytes(),
              l2Params().capacity_bytes / 8);
    EXPECT_EQ(h.l3().capacityBytes(),
              sramL3().capacity_bytes / 8);
}

TEST(CapacityDivisorDeathTest, RejectsDegenerateL1)
{
    PaperCalibratedErrorModel model;
    HierarchyConfig cfg;
    cfg.capacity_divisor = 4096;
    EXPECT_EXIT(Hierarchy(cfg, &model),
                ::testing::ExitedWithCode(1), "L1 below");
}

TEST(Runner, MatrixShapesAndNormalisation)
{
    PaperCalibratedErrorModel model;
    std::vector<LlcOption> options = {
        {"SRAM", MemTech::SRAM, Scheme::Baseline},
        {"RM", MemTech::Racetrack, Scheme::PeccSAdaptive},
    };
    auto rows = sweepMatrix(options, &model, 3000, 500, 32);
    EXPECT_EQ(rows.size(), parsecProfiles().size());
    for (const auto &row : rows) {
        ASSERT_EQ(row.results.size(), options.size());
        EXPECT_EQ(row.results[0].llc_tech, MemTech::SRAM);
        EXPECT_EQ(row.results[1].scheme, Scheme::PeccSAdaptive);
        EXPECT_GT(row.results[0].cycles, 0u);
    }
}

TEST(Runner, ScaledProfileFloorsTinyWorkingSets)
{
    WorkloadProfile p = parsecProfile("swaptions");
    WorkloadProfile s = scaledProfile(p, 1ull << 40);
    EXPECT_GE(s.working_set_bytes, 64u * 16);
}

TEST(Layout, ExpectedPhaseTracksOffsetBothVariants)
{
    for (PeccVariant v : {PeccVariant::Standard,
                          PeccVariant::OverheadRegion}) {
        PeccConfig c;
        c.num_segments = 2;
        c.seg_len = 8;
        c.correct = 1;
        c.variant = v;
        PeccLayout lay = computeLayout(c);
        int t = 4; // SECDED period
        for (int o = 0; o < 8; ++o) {
            // Shifting right by one decrements the phase by one
            // (mod T): the window slides backwards along the code.
            int now = lay.expectedPhase(o, t);
            int next = lay.expectedPhase(o + 1, t);
            EXPECT_EQ((now - next + t) % t, 1)
                << "variant " << static_cast<int>(v) << " o=" << o;
        }
        if (v == PeccVariant::OverheadRegion) {
            int now = lay.expectedLeftPhase(3, t);
            int next = lay.expectedLeftPhase(4, t);
            EXPECT_EQ((now - next + t) % t, 1);
        }
    }
}

TEST(Stripe, ShiftAndWriteUnderInjectedError)
{
    // An over-shift during shift-and-write still programs the
    // domain at the end port; deeper entered domains stay X.
    ScriptedErrorModel model({{+1, false}});
    std::vector<Port> ports = {{4, PortKind::ReadWrite}};
    RacetrackStripe s(8, ports, &model, Rng(1));
    for (int i = 0; i < 8; ++i)
        s.poke(i, Bit::Zero);
    s.shiftAndWrite(Bit::One, true);
    EXPECT_EQ(s.trueOffset(), 2);
    EXPECT_EQ(s.peek(0), Bit::One); // programmed at the port
    EXPECT_EQ(s.peek(1), Bit::X);   // the extra entered domain
    EXPECT_EQ(s.peek(2), Bit::Zero);
}

TEST(Stripe, ShiftAndWriteLeftDirection)
{
    ZeroErrorModel model;
    std::vector<Port> ports = {{4, PortKind::ReadWrite}};
    RacetrackStripe s(8, ports, &model, Rng(2));
    for (int i = 0; i < 8; ++i)
        s.poke(i, Bit::Zero);
    s.shiftAndWrite(Bit::One, false);
    EXPECT_EQ(s.trueOffset(), -1);
    EXPECT_EQ(s.peek(7), Bit::One);
    EXPECT_EQ(s.peek(0), Bit::Zero);
}

TEST(Controller, SegmentsAreIndependentColumns)
{
    // Writing through segment s's port must never disturb other
    // segments' data at any index.
    ZeroErrorModel model;
    PeccConfig c;
    c.num_segments = 4;
    c.seg_len = 8;
    c.correct = 1;
    c.variant = PeccVariant::Standard;
    ShiftController ctl(c, &model, ShiftPolicy::Unconstrained,
                        83e6, Rng(3));
    ctl.initialize();
    Cycles t = 0;
    for (int idx = 0; idx < 8; ++idx) {
        ctl.write(2, idx, Bit::One, t);
        t += 100;
    }
    for (int idx = 0; idx < 8; ++idx) {
        EXPECT_EQ(ctl.read(0, idx, t).value, Bit::Zero);
        EXPECT_EQ(ctl.read(2, idx, t + 1).value, Bit::One);
        EXPECT_EQ(ctl.read(3, idx, t + 2).value, Bit::Zero);
        t += 100;
    }
}

} // namespace
} // namespace rtm
