/**
 * @file
 * Unit tests for the trace-driven system simulator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
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
    const WorkloadProfile canneal = parsecProfile("canneal");
    const auto stream = [&cfg](const WorkloadProfile &p) {
        return RequestStream(p, cfg.hierarchy.cores, cfg.seed);
    };
    ChunkPool pool;
    const FrontEndLog log(cfg, stream(canneal), 2, pool);
    const ChunkPlan &plan = log.plan();
    ASSERT_EQ(plan.warmup_chunks, 2u);
    ASSERT_EQ(plan.chunks, 8u);
    EXPECT_EQ(plan.size(0), 1024u);
    EXPECT_EQ(plan.size(1), 476u);
    EXPECT_EQ(plan.size(2), 1024u);
    EXPECT_EQ(plan.size(7), 880u);

    EXPECT_TRUE(log.fits(cfg, stream(canneal)));
    SimConfig other = cfg;
    other.hierarchy.llc_tech = MemTech::SRAM; // the back end may differ
    EXPECT_TRUE(log.fits(other, stream(canneal)));
    other.hierarchy.capacity_divisor = 2;
    EXPECT_FALSE(log.fits(other, stream(canneal)));
    other = cfg;
    other.seed += 1;
    EXPECT_FALSE(log.fits(other, RequestStream(canneal, cfg.hierarchy.cores,
                                               other.seed)));
    // The log draws the requests, so a consumer of another workload,
    // or of a trace, is refused although its front end matches.
    EXPECT_FALSE(log.fits(cfg, stream(parsecProfile("swaptions"))));
    WorkloadProfile renamed = canneal;
    renamed.name = "canneal-copy";
    EXPECT_FALSE(log.fits(cfg, stream(renamed)));
    const std::vector<MemRequest> trace(8);
    EXPECT_FALSE(log.fits(cfg, RequestStream(trace)));
}

/**
 * Serve `trace` through one Hierarchy, request by request: the
 * unsplit path a FrontEndLog replay must reproduce (no warmup, and a
 * non-racetrack LLC, so no shift or reliability fields).
 */
SimResult
hierarchyReplay(const std::string &name,
                const std::vector<MemRequest> &trace, const SimConfig &cfg)
{
    Hierarchy h(cfg.hierarchy, nullptr);
    std::vector<Cycles> core_time(
        static_cast<size_t>(cfg.hierarchy.cores), 0);
    SimResult res;
    res.workload = name;
    res.llc_tech = cfg.hierarchy.llc_tech;
    res.scheme = cfg.hierarchy.scheme;
    for (uint64_t i = 0; i < cfg.mem_requests; ++i) {
        const MemRequest &req = trace[i % trace.size()];
        auto c = static_cast<size_t>(req.core);
        core_time[c] += req.gap_instructions;
        res.instructions += req.gap_instructions + 1;
        ++res.mem_ops;
        const HierarchyAccess acc =
            h.access(req.core, req.addr, req.is_write, core_time[c]);
        core_time[c] += acc.latency;
        res.cache_dynamic_energy += acc.energy;
    }
    for (Cycles t : core_time)
        res.cycles = std::max(res.cycles, t);
    res.seconds = cyclesToSeconds(res.cycles);
    res.dram_energy = h.dramEnergy();
    res.leakage_energy = h.totalLeakageWatts() * res.seconds;
    res.llc_accesses = h.l3().stats().accesses();
    res.llc_misses = h.l3().stats().misses();
    res.dram_accesses = h.dramAccesses();
    res.sdc_mttf = std::numeric_limits<double>::infinity();
    res.due_mttf = std::numeric_limits<double>::infinity();
    return res;
}

/**
 * Run `trace` alone under `configs[0]`, then under every config
 * through one shared log (the first run builds every chunk, the
 * others decode them), and compare each with hierarchyReplay on
 * every SimResult field.
 */
void
expectLogMatchesHierarchy(const std::string &name,
                          const std::vector<MemRequest> &trace,
                          const std::vector<SimConfig> &configs)
{
    ChunkPool pool;
    FrontEndLog shared(configs[0], RequestStream(trace), configs.size(),
                       pool);
    EXPECT_TRUE(simulateTrace(name, trace, configs[0], nullptr) ==
                hierarchyReplay(name, trace, configs[0]))
        << "lone run";
    for (size_t i = 0; i < configs.size(); ++i) {
        const SimResult r =
            simulateTrace(name, trace, configs[i], nullptr, &shared);
        const SimResult w = hierarchyReplay(name, trace, configs[i]);
        EXPECT_TRUE(r == w) << "log consumer " << i;
        EXPECT_EQ(r.cycles, w.cycles) << "log consumer " << i;
        EXPECT_EQ(r.llc_misses, w.llc_misses) << "log consumer " << i;
    }
    for (size_t i = 0; i < configs.size(); ++i)
        shared.release();
}

/** SRAM- and STT-RAM-LLC configurations replaying `trace` `loops`
 *  times, without warmup. */
std::vector<SimConfig>
sramAndSttConfigs(const std::vector<MemRequest> &trace, uint64_t loops)
{
    SimConfig cfg;
    cfg.hierarchy.llc_tech = MemTech::SRAM;
    cfg.hierarchy.scheme = Scheme::Baseline;
    cfg.hierarchy.capacity_divisor = 32;
    cfg.warmup_requests = 0;
    cfg.mem_requests = loops * trace.size();
    SimConfig stt = cfg;
    stt.hierarchy.llc_tech = MemTech::STTRAM;
    return {cfg, stt};
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
    const std::vector<SimConfig> configs = sramAndSttConfigs(trace, 3);
    const SimResult want = hierarchyReplay("wide", trace, configs[0]);
    ASSERT_GT(want.llc_accesses, want.llc_misses);
    expectLogMatchesHierarchy("wide", trace, configs);
}

TEST(FrontEndLog, EscapedRequestFieldsRoundTrip)
{
    // Every field a chunk record escapes: gaps at and above the
    // one-byte slot, an unaligned address, lines of 2^32 and up (so
    // their L2 victims escape too), on all four cores with reads
    // and writes. The lines cycle through more than L1/L2 hold, so
    // the escaped ones miss L2 and write back.
    const uint32_t gaps[] = {254, 255, 70000, 3, 0};
    const Addr regions[] = {0, Addr{1} << 38, Addr{1} << 45};
    std::vector<MemRequest> trace;
    for (size_t i = 0; i < 3000; ++i) {
        MemRequest req;
        req.core = static_cast<int>(i % 4);
        req.is_write = (i / 4) % 3 != 0;
        req.gap_instructions = gaps[i % std::size(gaps)];
        req.addr = regions[i % std::size(regions)] +
                   (i * 7 % 1500) * kLineBytes;
        if (i % 11 == 0)
            req.addr += 8; // unaligned
        trace.push_back(req);
    }
    const std::vector<SimConfig> configs = sramAndSttConfigs(trace, 2);

    // The escapes do occur at L2 misses and writebacks.
    FrontEnd front(configs[0].hierarchy);
    const int tag_shift = front.l2(0).tagShift();
    uint64_t unaligned = 0, high = 0, wide_victims = 0;
    for (uint64_t i = 0; i < configs[0].mem_requests; ++i) {
        const MemRequest &req = trace[i % trace.size()];
        Addr victim = 0;
        const uint8_t bits =
            front.access(req.core, req.addr, req.is_write, &victim);
        if (!(bits & kL2Miss))
            continue;
        unaligned += req.addr % kLineBytes != 0;
        high += req.addr / kLineBytes >= Addr{1} << 32;
        if (bits & kL2Writeback)
            wide_victims += (victim >> tag_shift) >= UINT16_MAX;
    }
    EXPECT_GT(unaligned, 0u);
    EXPECT_GT(high, 0u);
    EXPECT_GT(wide_victims, 0u);

    // A decoded chunk holds what its builder drew and served: every
    // field, and the exact address and victim of each L2 miss (the
    // back end reads no address bits below the line today).
    ChunkPool pool;
    FrontEndLog log(configs[0], RequestStream(trace), 2, pool);
    const auto drawn = std::make_unique<FrontEndBatch>();
    const auto decoded = std::make_unique<FrontEndBatch>();
    size_t at = 0;
    for (size_t k = 0; k < log.plan().chunks; ++k) {
        log.chunk(k, *drawn);
        log.chunk(k, *decoded);
        for (size_t j = 0; j < log.plan().size(k); ++j, ++at) {
            const MemRequest &want = trace[at % trace.size()];
            const MemRequest &a = drawn->requests[j];
            const MemRequest &b = decoded->requests[j];
            ASSERT_EQ(a.addr, want.addr) << at;
            ASSERT_EQ(b.core, want.core) << at;
            ASSERT_EQ(b.is_write, want.is_write) << at;
            ASSERT_EQ(b.gap_instructions, want.gap_instructions) << at;
            const uint8_t bits = drawn->bits[j];
            ASSERT_EQ(decoded->bits[j], bits) << at;
            if (bits & kL2Miss) {
                ASSERT_EQ(b.addr, want.addr) << at;
            }
            if (bits & kL2Writeback) {
                ASSERT_EQ(decoded->victims[j], drawn->victims[j]) << at;
            }
        }
    }
    log.release();
    log.release();

    const SimResult want = hierarchyReplay("escapes", trace, configs[0]);
    ASSERT_GT(want.llc_accesses, want.llc_misses);
    expectLogMatchesHierarchy("escapes", trace, configs);
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
