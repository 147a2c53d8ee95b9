/**
 * @file
 * Unit tests for the trace-driven system simulator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "sim/runner.hh"
#include "util/prob.hh"
#include "sim/system.hh"

namespace rtm
{
namespace
{

class SimFixture : public ::testing::Test
{
  protected:
    PaperCalibratedErrorModel model_;

    // Tests run a 32x-shrunk hierarchy with equally-shrunk working
    // sets: capacity ratios and the sensitivity divide are preserved
    // while 30k-request runs develop real reuse (see
    // HierarchyConfig::capacity_divisor).
    static constexpr uint64_t kDivisor = 32;

    SimResult
    run(const std::string &workload, MemTech tech, Scheme scheme,
        uint64_t requests = 30000)
    {
        SimConfig cfg;
        cfg.hierarchy.llc_tech = tech;
        cfg.hierarchy.scheme = scheme;
        cfg.hierarchy.capacity_divisor = kDivisor;
        cfg.mem_requests = requests;
        cfg.warmup_requests = 5000;
        return simulate(
            scaledProfile(parsecProfile(workload), kDivisor), cfg,
            &model_);
    }
};

TEST_F(SimFixture, ProducesSaneBasics)
{
    SimResult r = run("blackscholes", MemTech::SRAM,
                      Scheme::Baseline);
    EXPECT_EQ(r.mem_ops, 30000u);
    EXPECT_GT(r.instructions, r.mem_ops);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.seconds, 0.0);
    EXPECT_GT(r.cache_dynamic_energy, 0.0);
    EXPECT_GT(r.leakage_energy, 0.0);
    EXPECT_GT(r.ipc(), 0.0);
    EXPECT_LT(r.ipc(), 4.1); // 4 cores x 1-wide
}

TEST_F(SimFixture, SramLlcHasInfiniteRacetrackMttf)
{
    SimResult r = run("blackscholes", MemTech::SRAM,
                      Scheme::Baseline);
    EXPECT_TRUE(std::isinf(r.sdc_mttf));
    EXPECT_TRUE(std::isinf(r.due_mttf));
    EXPECT_EQ(r.shift_ops, 0u);
}

TEST_F(SimFixture, CapacitySensitiveWorkloadsPreferBigLlc)
{
    // Fig. 16's core claim: racetrack's 128 MB cuts execution time
    // for capacity-sensitive workloads vs 4 MB SRAM.
    SimResult sram = run("canneal", MemTech::SRAM,
                         Scheme::Baseline);
    SimResult rm = run("canneal", MemTech::RacetrackIdeal,
                       Scheme::Baseline);
    EXPECT_LT(rm.cycles, sram.cycles);
    EXPECT_LT(rm.llc_misses, sram.llc_misses);
}

TEST_F(SimFixture, CapacityInsensitiveWorkloadsDoNotCare)
{
    SimResult sram = run("swaptions", MemTech::SRAM,
                         Scheme::Baseline);
    SimResult rm = run("swaptions", MemTech::RacetrackIdeal,
                       Scheme::Baseline);
    double ratio = static_cast<double>(rm.cycles) /
                   static_cast<double>(sram.cycles);
    EXPECT_NEAR(ratio, 1.0, 0.05);
}

TEST_F(SimFixture, ShiftLatencyCostsShowUp)
{
    SimResult ideal = run("canneal", MemTech::RacetrackIdeal,
                          Scheme::Baseline);
    SimResult real = run("canneal", MemTech::Racetrack,
                         Scheme::Baseline);
    EXPECT_GT(real.cycles, ideal.cycles);
    EXPECT_GT(real.shift_cycles, 0u);
    EXPECT_GT(real.llc_shift_energy, 0.0);
}

TEST_F(SimFixture, ProtectionOverheadIsModest)
{
    // Fig. 16: p-ECC-S adaptive costs ~0.2% execution time over the
    // unprotected racetrack; p-ECC-O ~2%. Allow generous slack but
    // pin the ordering and the single-digit-percent scale.
    SimResult base = run("streamcluster", MemTech::Racetrack,
                         Scheme::Baseline);
    SimResult adaptive = run("streamcluster", MemTech::Racetrack,
                             Scheme::PeccSAdaptive);
    SimResult pecc_o = run("streamcluster", MemTech::Racetrack,
                           Scheme::PeccO);
    double adaptive_ovh =
        static_cast<double>(adaptive.cycles) / base.cycles - 1.0;
    double pecc_o_ovh =
        static_cast<double>(pecc_o.cycles) / base.cycles - 1.0;
    EXPECT_GE(adaptive_ovh, -0.001);
    EXPECT_LT(adaptive_ovh, 0.05);
    EXPECT_GE(pecc_o_ovh, adaptive_ovh);
    EXPECT_LT(pecc_o_ovh, 0.20);
}

TEST_F(SimFixture, MttfOrderingAcrossSchemes)
{
    // Fig. 10/11 orderings on one workload.
    SimResult base = run("ferret", MemTech::Racetrack,
                         Scheme::Baseline, 20000);
    SimResult sed = run("ferret", MemTech::Racetrack,
                        Scheme::SedPecc, 20000);
    SimResult secded = run("ferret", MemTech::Racetrack,
                           Scheme::SecdedPecc, 20000);
    SimResult adaptive = run("ferret", MemTech::Racetrack,
                             Scheme::PeccSAdaptive, 20000);
    // SDC: baseline terrible, SED much better, SECDED better still.
    EXPECT_LT(base.sdc_mttf, 1.0);
    EXPECT_GT(sed.sdc_mttf, base.sdc_mttf * 1e6);
    EXPECT_GT(secded.sdc_mttf, sed.sdc_mttf);
    // DUE: SED poor, SECDED decent, adaptive much better.
    EXPECT_LT(sed.due_mttf, secded.due_mttf);
    EXPECT_LT(secded.due_mttf, adaptive.due_mttf);
}

TEST_F(SimFixture, PaperHeadlineMttfScale)
{
    // Abstract: baseline MTTF ~ 1.33 us; p-ECC-S adaptive > 10
    // years. Our synthetic traces need only reproduce the scale:
    // sub-millisecond baseline, multi-year adaptive.
    SimResult base = run("canneal", MemTech::Racetrack,
                         Scheme::Baseline, 20000);
    SimResult adaptive = run("canneal", MemTech::Racetrack,
                             Scheme::PeccSAdaptive, 20000);
    EXPECT_LT(base.sdc_mttf, 1e-3);
    EXPECT_GT(adaptive.due_mttf, 10.0 * kSecondsPerYear);
}

TEST_F(SimFixture, DeterministicGivenSeed)
{
    SimResult a = run("vips", MemTech::Racetrack,
                      Scheme::PeccSAdaptive, 10000);
    SimResult b = run("vips", MemTech::Racetrack,
                      Scheme::PeccSAdaptive, 10000);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.shift_steps, b.shift_steps);
    EXPECT_DOUBLE_EQ(a.cache_dynamic_energy,
                     b.cache_dynamic_energy);
}

TEST_F(SimFixture, ProfilingPassCountsWithoutTrackCounts)
{
    // Asking for a frame profile is enough: the default (static,
    // non-counting) placement must still hand back one count per
    // frame, or the second pass would silently run online
    // hot-center on an empty profile. Counting itself is inert.
    SimConfig cfg;
    cfg.hierarchy.llc_tech = MemTech::Racetrack;
    cfg.hierarchy.scheme = Scheme::PeccSAdaptive;
    cfg.hierarchy.capacity_divisor = kDivisor;
    cfg.mem_requests = 10000;
    cfg.warmup_requests = 1000;
    const WorkloadProfile profile =
        scaledProfile(parsecProfile("canneal"), kDivisor);
    const SimResult plain = simulate(profile, cfg, &model_);

    std::vector<uint64_t> counts;
    cfg.frame_profile_out = &counts;
    const SimResult profiled = simulate(profile, cfg, &model_);
    ASSERT_FALSE(counts.empty());
    uint64_t total = 0;
    for (uint64_t c : counts)
        total += c;
    EXPECT_GE(total, profiled.llc_accesses);
    EXPECT_EQ(profiled.cycles, plain.cycles);
    EXPECT_EQ(profiled.shift_steps, plain.shift_steps);
}

TEST(FrontEndLog, ChunksEndAtTheWarmupBoundary)
{
    SimConfig cfg;
    cfg.warmup_requests = 1500;
    cfg.mem_requests = 6000;
    const FrontEndLog log(cfg, 2);
    const ChunkPlan &plan = log.plan();
    ASSERT_EQ(plan.warmup_chunks, 2u);
    ASSERT_EQ(plan.chunks, 8u);
    EXPECT_EQ(plan.size(0), 1024u);
    EXPECT_EQ(plan.size(1), 476u);
    EXPECT_EQ(plan.size(2), 1024u);
    EXPECT_EQ(plan.size(7), 880u);

    EXPECT_TRUE(log.fits(cfg));
    SimConfig other = cfg;
    other.hierarchy.llc_tech = MemTech::SRAM; // the back end may differ
    EXPECT_TRUE(log.fits(other));
    other.hierarchy.capacity_divisor = 2;
    EXPECT_FALSE(log.fits(other));
    other = cfg;
    other.seed += 1;
    EXPECT_FALSE(log.fits(other));
}

/**
 * Serve `trace` through one Hierarchy, request by request: the
 * unsplit path a FrontEndLog replay must reproduce (no warmup).
 */
SimResult
hierarchyReplay(const std::vector<MemRequest> &trace, const SimConfig &cfg)
{
    Hierarchy h(cfg.hierarchy, nullptr);
    std::vector<Cycles> core_time(
        static_cast<size_t>(cfg.hierarchy.cores), 0);
    SimResult res;
    for (uint64_t i = 0; i < cfg.mem_requests; ++i) {
        const MemRequest &req = trace[i % trace.size()];
        auto c = static_cast<size_t>(req.core);
        core_time[c] += req.gap_instructions;
        const HierarchyAccess acc =
            h.access(req.core, req.addr, req.is_write, core_time[c]);
        core_time[c] += acc.latency;
        res.cache_dynamic_energy += acc.energy;
    }
    for (Cycles t : core_time)
        res.cycles = std::max(res.cycles, t);
    res.llc_accesses = h.l3().stats().accesses();
    res.llc_misses = h.l3().stats().misses();
    res.dram_accesses = h.dramAccesses();
    return res;
}

TEST(FrontEndLog, WideVictimLinesMatchTheHierarchy)
{
    // L2 tags of 2^16 - 1 and up do not fit the log's 16-bit victim
    // slot. Dirty lines there overflow L1/L2, install into L3 as L2
    // victims, and are read back: a victim logged at the wrong
    // address would miss.
    std::vector<MemRequest> trace;
    const Addr base = Addr{1} << 40;
    for (bool is_write : {true, false})
        for (Addr line = 0; line < 1536; ++line)
            trace.push_back(
                MemRequest{0, base + line * kLineBytes, is_write, 1});
    SimConfig cfg;
    cfg.hierarchy.llc_tech = MemTech::SRAM;
    cfg.hierarchy.scheme = Scheme::Baseline;
    cfg.hierarchy.capacity_divisor = 32;
    cfg.warmup_requests = 0;
    cfg.mem_requests = 3 * trace.size();
    SimConfig stt = cfg;
    stt.hierarchy.llc_tech = MemTech::STTRAM;
    const SimResult want[] = {hierarchyReplay(trace, cfg),
                              hierarchyReplay(trace, stt)};
    ASSERT_GT(want[0].llc_accesses, want[0].llc_misses);

    // A lone run (its own L1/L2), and two runs sharing one log: the
    // first builds every chunk, the second replays them.
    FrontEndLog shared(cfg, 2);
    const SimResult runs[] = {
        simulateTrace("wide", trace, cfg, nullptr),
        simulateTrace("wide", trace, cfg, nullptr, &shared),
        simulateTrace("wide", trace, stt, nullptr, &shared),
    };
    shared.release();
    shared.release();
    for (size_t i = 0; i < std::size(runs); ++i) {
        const SimResult &r = runs[i];
        const SimResult &w = want[i / 2];
        EXPECT_EQ(r.cycles, w.cycles) << "run " << i;
        EXPECT_EQ(r.llc_accesses, w.llc_accesses) << "run " << i;
        EXPECT_EQ(r.llc_misses, w.llc_misses) << "run " << i;
        EXPECT_EQ(r.dram_accesses, w.dram_accesses) << "run " << i;
        EXPECT_EQ(r.cache_dynamic_energy, w.cache_dynamic_energy)
            << "run " << i;
    }
}

TEST(Runner, OptionSetsMatchPaperLegends)
{
    EXPECT_EQ(standardLlcOptions().size(), 7u);
    EXPECT_EQ(racetrackSchemeOptions().size(), 4u);
}

TEST(Runner, Geomean)
{
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
    EXPECT_EQ(geomean({}), 0.0);
}

} // namespace
} // namespace rtm
