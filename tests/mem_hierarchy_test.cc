/**
 * @file
 * Unit tests for the three-level hierarchy and its technology
 * options.
 */

#include <gtest/gtest.h>

#include "mem/hierarchy.hh"

namespace rtm
{
namespace
{

class HierarchyFixture : public ::testing::Test
{
  protected:
    PaperCalibratedErrorModel model_;

    Hierarchy
    make(MemTech tech, Scheme scheme = Scheme::PeccSAdaptive)
    {
        HierarchyConfig cfg;
        cfg.llc_tech = tech;
        cfg.scheme = scheme;
        return Hierarchy(cfg, &model_);
    }
};

TEST_F(HierarchyFixture, L1HitIsCheapest)
{
    Hierarchy h = make(MemTech::SRAM);
    h.access(0, 0x1000, false, 0);
    HierarchyAccess hit = h.access(0, 0x1000, false, 10);
    EXPECT_TRUE(hit.l1_hit);
    EXPECT_EQ(hit.latency, l1Params().read_latency);
}

TEST_F(HierarchyFixture, MissPathAccumulatesLatency)
{
    Hierarchy h = make(MemTech::SRAM);
    HierarchyAccess cold = h.access(0, 0x2000, false, 0);
    EXPECT_FALSE(cold.l1_hit);
    EXPECT_TRUE(cold.dram_access);
    // L1 + L2 + L3 + DRAM read latencies.
    Cycles expect = l1Params().read_latency +
                    l2Params().read_latency +
                    sramL3().read_latency +
                    dramParams().access_latency;
    EXPECT_EQ(cold.latency, expect);
}

TEST_F(HierarchyFixture, PrivateL1PerCore)
{
    Hierarchy h = make(MemTech::SRAM);
    h.access(0, 0x3000, false, 0);
    // Core 1 missing L1 but the line sits in the shared L2 of the
    // same cluster.
    HierarchyAccess r = h.access(1, 0x3000, false, 10);
    EXPECT_FALSE(r.l1_hit);
    EXPECT_TRUE(r.l2_hit);
    // Core 2 is in the other cluster: misses L2, hits L3.
    HierarchyAccess r2 = h.access(2, 0x3000, false, 20);
    EXPECT_FALSE(r2.l2_hit);
    EXPECT_TRUE(r2.l3_hit);
}

TEST_F(HierarchyFixture, RacetrackLlcChargesShiftLatency)
{
    Hierarchy rm = make(MemTech::Racetrack);
    Hierarchy ideal = make(MemTech::RacetrackIdeal);
    // Touch two lines in the same stripe group at different
    // segment-local indices so the second access needs a shift.
    // Frames are allocated per L3 set/way; use addresses mapping to
    // adjacent frames.
    HierarchyAccess a1 = rm.access(0, 0x0, false, 0);
    HierarchyAccess a2 = ideal.access(0, 0x0, false, 0);
    EXPECT_GE(a1.latency, a2.latency);
    EXPECT_GT(rm.rmBank()->stats().shift_steps, 0u);
    // The ideal option tracks shifts but never charges them.
    EXPECT_EQ(a2.shift_cycles, 0u);
}

TEST_F(HierarchyFixture, SramHasNoBank)
{
    Hierarchy h = make(MemTech::SRAM);
    EXPECT_EQ(h.rmBank(), nullptr);
}

TEST_F(HierarchyFixture, LeakageSumsLevels)
{
    Hierarchy h = make(MemTech::SRAM);
    double w = h.totalLeakageWatts();
    double expect = 4 * l1Params().leakage_watts +
                    2 * l2Params().leakage_watts +
                    sramL3().leakage_watts;
    EXPECT_NEAR(w, expect, 1e-9);
}

TEST_F(HierarchyFixture, BiggerLlcKeepsBigWorkingSet)
{
    // An 8 MB working set fits the 128 MB racetrack LLC but not the
    // 4 MB SRAM LLC: after warmup the racetrack config stops going
    // to DRAM.
    Hierarchy sram = make(MemTech::SRAM);
    Hierarchy rm = make(MemTech::RacetrackIdeal);
    const uint64_t ws = 8ull << 20;
    for (int rep = 0; rep < 2; ++rep) {
        for (Addr a = 0; a < ws; a += 4096) {
            sram.access(0, a, false, 0);
            rm.access(0, a, false, 0);
        }
    }
    uint64_t sram_dram = sram.dramAccesses();
    uint64_t rm_dram = rm.dramAccesses();
    EXPECT_LT(rm_dram, sram_dram);
}

TEST_F(HierarchyFixture, EnergyAccumulatesAtEveryLevel)
{
    Hierarchy h = make(MemTech::SRAM);
    HierarchyAccess cold = h.access(0, 0x4000, false, 0);
    double expect = l1Params().read_energy + l2Params().read_energy +
                    sramL3().read_energy +
                    dramParams().access_energy;
    EXPECT_NEAR(cold.energy, expect, 1e-12);
    EXPECT_NEAR(h.dramEnergy(), dramParams().access_energy, 1e-12);
}

TEST_F(HierarchyFixture, DirtyDataWritesBackThroughLevels)
{
    Hierarchy h = make(MemTech::SRAM);
    // Dirty a line, then thrash its L1 set so it must write back.
    Addr victim = 0x10000;
    h.access(0, victim, true, 0);
    uint64_t l1_sets = h.l1(0).sets();
    for (uint64_t i = 1; i <= 4; ++i)
        h.access(0, victim + i * l1_sets * 64, false, 10 * i);
    EXPECT_GT(h.l1(0).stats().writebacks, 0u);
}

TEST(FrontEnd, DroppedL2WritebacksAreCounted)
{
    // A dirty line kept hot in L1 ages out of its L2 set (A's L2
    // writeback is a kL2Writeback). F then evicts A from L1, and
    // A's install into L2 evicts the dirty B, whose writeback is
    // dropped. Every dirty L2 eviction is one or the other.
    FrontEnd front(HierarchyConfig{});
    const Addr stride = front.l2(0).sets() * kLineBytes;
    const Addr a = 0x40000;
    const std::pair<Addr, bool> trace[] = {
        {a, true},              {a + stride, true},     {a, false},
        {a + 2 * stride, true}, {a, false},             {a + 3 * stride, true},
        {a, false},             {a + 4 * stride, true}, {a + 5 * stride, true},
    };
    uint64_t l2_writebacks = 0;
    for (const auto &[addr, is_write] : trace) {
        Addr victim = 0;
        if (front.access(0, addr, is_write, &victim) & kL2Writeback)
            ++l2_writebacks;
    }
    Telemetry sink;
    front.exportTelemetry(sink);
    const uint64_t dropped =
        sink.counters().at("mem.l2.dropped_writebacks").value();
    EXPECT_EQ(dropped, 1u);
    EXPECT_EQ(l2_writebacks, 2u);
    EXPECT_EQ(sink.counters().at("mem.l2.writebacks").value(),
              dropped + l2_writebacks);
}

} // namespace
} // namespace rtm
