/**
 * @file
 * Tests for the extension features: the perpendicular-material
 * preset, trace-replay simulation, and the
 * overdrive sensitivity of the Monte-Carlo error model.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "device/montecarlo.hh"
#include "sim/system.hh"
#include "trace/trace_file.hh"

namespace rtm
{
namespace
{

TEST(PerpendicularMaterial, DenserButNoisier)
{
    DeviceParams in_plane;
    DeviceParams perp = perpendicularMaterial();
    // Density: much finer pitch.
    EXPECT_LT(perp.pitch(), 0.5 * in_plane.pitch());
    // Noise: larger relative geometry variation.
    EXPECT_GT(perp.sigma_width, in_plane.sigma_width);

    PositionErrorMonteCarlo mc_ip(in_plane, 1);
    PositionErrorMonteCarlo mc_pp(perp, 1);
    FittedErrorModel fit_ip = mc_ip.fitModel(60000);
    FittedErrorModel fit_pp = mc_pp.fitModel(60000);
    // The paper's caveat: higher error rate for the denser stack.
    EXPECT_GT(fit_pp.logProbStep(1, 1), fit_ip.logProbStep(1, 1));
}

TEST(Overdrive, UnderShootAtLowDriveOverShootAtHigh)
{
    DeviceParams low, high;
    low.overdrive = 1.2;
    high.overdrive = 4.0;
    PositionErrorMonteCarlo mc_low(low, 2);
    PositionErrorMonteCarlo mc_high(high, 2);
    ErrorPdf pdf_low = mc_low.run(7, 50000);
    ErrorPdf pdf_high = mc_high.run(7, 50000);
    EXPECT_LT(pdf_low.deviation.mean(), 0.0);
    EXPECT_GT(pdf_high.deviation.mean(), 0.0);
    // Error rates at the extremes exceed the 2*J0 operating point.
    DeviceParams nominal;
    PositionErrorMonteCarlo mc_nom(nominal, 2);
    ErrorPdf pdf_nom = mc_nom.run(7, 50000);
    auto err_frac = [](const ErrorPdf &p) {
        return 1.0 - p.stepProbability(0);
    };
    EXPECT_GT(err_frac(pdf_low), err_frac(pdf_nom));
    EXPECT_GT(err_frac(pdf_high), err_frac(pdf_nom));
}

TEST(TraceSim, ReplayedTraceDrivesTheHierarchy)
{
    PaperCalibratedErrorModel model;
    // Five lines at 256 KB stride: with capacity divisor 32 they
    // collide in the 2-way L1 and 4-way L2 (so every access misses
    // through to L3) and share one L3 set, landing in consecutive
    // ways of the same stripe group - every L3 access must shift.
    const TraceParseResult parsed = parseTraceChecked("0 0x00000 R 2\n"
                                                      "0 0x40000 R 2\n"
                                                      "0 0x80000 W 2\n"
                                                      "0 0xC0000 R 2\n"
                                                      "0 0x100000 W 2\n");
    ASSERT_TRUE(parsed.ok());
    const std::vector<MemRequest> &trace = parsed.requests;
    SimConfig cfg;
    cfg.hierarchy.llc_tech = MemTech::Racetrack;
    cfg.hierarchy.scheme = Scheme::PeccSAdaptive;
    cfg.hierarchy.capacity_divisor = 32;
    cfg.mem_requests = 2000;
    cfg.warmup_requests = 10;
    SimResult r = simulateTrace("pingpong", trace, cfg, &model);
    EXPECT_EQ(r.workload, "pingpong");
    EXPECT_EQ(r.mem_ops, 2000u);
    EXPECT_GT(r.shift_ops, 1000u); // nearly every access shifts
    EXPECT_GT(r.cycles, 0u);
}

TEST(TraceSim, DeterministicReplay)
{
    PaperCalibratedErrorModel model;
    const TraceParseResult parsed =
        parseTraceChecked("0 0x000 R 1\n1 0x400 W 3\n2 0x800 R 2\n");
    ASSERT_TRUE(parsed.ok());
    const std::vector<MemRequest> &trace = parsed.requests;
    SimConfig cfg;
    cfg.hierarchy.llc_tech = MemTech::Racetrack;
    cfg.hierarchy.capacity_divisor = 32;
    cfg.mem_requests = 500;
    cfg.warmup_requests = 0;
    SimResult a = simulateTrace("t", trace, cfg, &model);
    SimResult b = simulateTrace("t", trace, cfg, &model);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.shift_steps, b.shift_steps);
}

TEST(TraceSimDeathTest, EmptyTraceIsFatal)
{
    PaperCalibratedErrorModel model;
    SimConfig cfg;
    EXPECT_EXIT(simulateTrace("empty", {}, cfg, &model),
                ::testing::ExitedWithCode(1), "empty trace");
}

TEST(TraceSimDeathTest, CoreBeyondTheHierarchyIsFatal)
{
    // Core ids index per-core clocks: a stray id is refused before
    // any request is served, not written out of bounds.
    PaperCalibratedErrorModel model;
    SimConfig cfg;
    cfg.hierarchy.cores = 4;
    std::vector<MemRequest> trace(2);
    trace[1].core = 7;
    EXPECT_EXIT(simulateTrace("stray", trace, cfg, &model),
                ::testing::ExitedWithCode(1),
                "request 1 names core 7, the hierarchy has 4 cores");
}

} // namespace
} // namespace rtm
