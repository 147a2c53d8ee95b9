/**
 * @file
 * Ablation: in-plane vs perpendicular-anisotropy material
 * (paper Sec. 3.1: "Using perpendicular material can reduce the
 * size of domain but may increase error rate at the same time").
 *
 * Compares the two device presets on density (pitch) and on the
 * Monte-Carlo-fitted position-error rates, then translates the rate
 * difference into the safe distance each material affords at the
 * paper's LLC intensity.
 */

#include <cmath>
#include <cstdio>

#include "common.hh"
#include "control/planner.hh"
#include "device/montecarlo.hh"

using namespace rtm;

namespace
{

void
report(const char *name, const DeviceParams &params)
{
    PositionErrorMonteCarlo mc(params, 31);
    FittedErrorModel fit = mc.fitModel(150000);
    double p1 = std::exp(fit.logProbStep(1, 1)) +
                std::exp(fit.logProbStep(1, -1));
    double p7 = std::exp(fit.logProbStep(7, 1)) +
                std::exp(fit.logProbStep(7, -1));
    StsTiming timing(kDefaultClockHz, kStage1PerStepSeconds,
                     kStage2PulseSeconds, kInPathCheckSeconds);
    ShiftPlanner planner(&fit, timing, 1, kSegLen - 1);
    std::printf("%-13s pitch %5.0f nm  (density x%.1f)  "
                "P(+-1|1)=%.3g  P(+-1|7)=%.3g  Dsafe@83M=%d\n",
                name, params.pitch() * 1e9,
                195.0 / (params.pitch() * 1e9), p1, p7,
                planner.safeDistance(kPeakLlcOpsPerSecond));
}

} // namespace

int
main()
{
    banner("Ablation", "in-plane vs perpendicular material");

    DeviceParams in_plane;
    DeviceParams perp = perpendicularMaterial();
    report("in-plane", in_plane);
    report("perpendicular", perp);

    std::printf("\nthe perpendicular stack packs ~%.0fx more domains "
                "per wire but its finer, noisier notches raise the "
                "position-error rate, tightening the safe distance "
                "- exactly the paper's caveat. The protection "
                "architecture absorbs the difference: the planner "
                "simply decomposes shifts more aggressively.\n",
                in_plane.pitch() / perp.pitch());
    return 0;
}
