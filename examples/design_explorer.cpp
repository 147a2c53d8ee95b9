/**
 * @file
 * Design-space explorer: sweep stripe configurations and protection
 * schemes for a racetrack memory and report which design points meet
 * a reliability target within an area budget - the Sec. 6
 * trade-off discussion as a tool.
 *
 *   ./design_explorer [mttf_years] [area_budget_f2_per_bit]
 *
 * e.g. ./design_explorer 10 12.5
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "codec/layout.hh"
#include "control/planner.hh"
#include "device/error_model.hh"
#include "model/area.hh"
#include "model/reliability.hh"
#include "util/prob.hh"
#include "util/table.hh"

using namespace rtm;

namespace
{

/** Average DUE log-rate per access for a scheme on one shape. */
double
logDuePerAccess(const PaperCalibratedErrorModel &model, int lseg,
                Scheme scheme, double ops)
{
    StsTiming timing(kDefaultClockHz, kStage1PerStepSeconds,
                     kStage2PulseSeconds, kInPathCheckSeconds);
    ShiftPlanner planner(&model, timing, 1, lseg - 1);
    ReliabilityModel rel(&model, scheme);
    double acc = 0.0;
    int n = 0;
    for (int from = 0; from < lseg; ++from) {
        for (int to = 0; to < lseg; ++to) {
            int d = std::abs(to - from);
            ++n;
            if (!d)
                continue;
            std::vector<int> parts =
                schemeRow(scheme).policy == ShiftPolicy::StepByStep
                    ? std::vector<int>(static_cast<size_t>(d), 1)
                    : planner.planForIntensity(d, ops).parts;
            acc += std::exp(rel.sequence(parts).log_due);
        }
    }
    return std::log(acc / n);
}

/** Average shift cycles per access for a scheme on one shape. */
double
avgCycles(const PaperCalibratedErrorModel &model, int lseg,
          Scheme scheme, double ops)
{
    StsTiming timing(kDefaultClockHz, kStage1PerStepSeconds,
                     kStage2PulseSeconds, kInPathCheckSeconds);
    ShiftPlanner planner(&model, timing, 1, lseg - 1);
    double acc = 0.0;
    int n = 0;
    for (int from = 0; from < lseg; ++from) {
        for (int to = 0; to < lseg; ++to) {
            int d = std::abs(to - from);
            ++n;
            if (!d)
                continue;
            if (schemeRow(scheme).policy == ShiftPolicy::StepByStep)
                acc += static_cast<double>(
                    d * timing.shiftCycles(1));
            else
                acc += static_cast<double>(
                    planner.planForIntensity(d, ops).latency);
        }
    }
    return acc / n;
}

} // namespace

int
main(int argc, char **argv)
{
    double mttf_years = argc > 1 ? std::atof(argv[1]) : 10.0;
    double area_budget = argc > 2 ? std::atof(argv[2]) : 12.5;
    const double ops = kPeakLlcOpsPerSecond;
    const double stripes = kStripesPerLine;

    std::printf("design explorer: DUE MTTF >= %.0f years, area <= "
                "%.1f F^2/bit, %g accesses/s\n\n",
                mttf_years, area_budget, ops);

    PaperCalibratedErrorModel model;
    AreaModel area;

    TextTable t({"config", "scheme", "area F^2/b", "avg shift cyc",
                 "DUE MTTF (years)", "feasible"});
    int feasible = 0;
    struct Shape { int segments; int lseg; };
    const Shape shapes[] = {{32, 2}, {16, 4}, {8, 8}, {4, 16},
                            {2, 32}};
    for (const auto &s : shapes) {
        for (Scheme scheme :
             {Scheme::PeccSAdaptive, Scheme::PeccO}) {
            double a = area.areaPerDataBit(
                peccConfigFor(scheme, s.segments, s.lseg));
            double lp = logDuePerAccess(model, s.lseg, scheme, ops);
            double mttf =
                steadyStateMttf(lp, ops * stripes) /
                kSecondsPerYear;
            double cyc = avgCycles(model, s.lseg, scheme, ops);
            bool ok = mttf >= mttf_years && a <= area_budget;
            feasible += ok;
            char label[32];
            std::snprintf(label, sizeof(label), "%dx%d",
                          s.segments, s.lseg);
            t.addRow({label, schemeName(scheme),
                      TextTable::fixed(a, 2),
                      TextTable::fixed(cyc, 1),
                      TextTable::num(mttf), ok ? "YES" : "no"});
        }
    }
    t.print(stdout);
    std::printf("\n%d feasible design point(s). Long segments buy "
                "density; p-ECC-O buys reliability and area at a "
                "latency price; the adaptive scheme balances the "
                "three.\n",
                feasible);
    return 0;
}
