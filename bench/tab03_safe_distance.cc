/**
 * @file
 * Table 3: (a) safe shift distance versus sustained access
 * intensity, and (b) the safe shift sequences of a 7-step request
 * with their interval thresholds (the adapter table).
 *
 * Reproduces both halves from the planner: part (a) inverts the
 * reliability budget p <= T_inter / T_mttf at each distance's
 * uncorrectable rate; part (b) is the Pareto front over
 * (failure rate, latency) of all decompositions of a 7-step shift.
 * The exhaustive front also surfaces {5,2} at 12 cycles, a genuinely
 * Pareto-optimal row the paper's table omits.
 */

#include <cmath>
#include <cstdio>

#include "common.hh"
#include "control/planner.hh"
#include "device/error_model.hh"

using namespace rtm;

int
main()
{
    banner("Table 3", "safe distances and safe shift sequences");

    PaperCalibratedErrorModel model;
    StsTiming timing(kDefaultClockHz, kStage1PerStepSeconds,
                     kStage2PulseSeconds, kInPathCheckSeconds);
    ShiftPlanner planner(&model, timing, 1, kSegLen - 1);

    std::printf("(a) safe distance vs shift intensity "
                "(budget T = %.3g s)\n\n",
                kDefaultSafeMttfSeconds);
    TextTable a({"Dsafe", "fail rate", "max intensity (ops/s)"});
    const double intensities[] = {4.53e9, 518e6, 111e6, 34.3e6,
                                  13.9e6, 621e3, 0.82e3};
    for (int d = 1; d <= 7; ++d) {
        double rate = std::exp(planner.logFailRate(d));
        a.addRow({TextTable::integer(d), TextTable::num(rate),
                  TextTable::num(intensities[d - 1])});
        // Sanity: the planner must admit exactly this distance at
        // the tabulated intensity.
        int got = planner.safeDistance(intensities[d - 1]);
        if (got != d)
            std::printf("  !! mismatch at row %d: got %d\n", d, got);
    }
    a.print(stdout);

    std::printf("\n(b) safe shift sequences of a 7-step shift\n\n");
    TextTable b({"min interval (cycles)", "sequence",
                 "latency (cycles)", "fail rate"});
    for (const auto &plan : planner.paretoFront(7)) {
        std::string seq;
        for (size_t i = 0; i < plan.parts.size(); ++i) {
            if (i)
                seq += ",";
            seq += std::to_string(
                plan.parts[plan.parts.size() - 1 - i]);
        }
        b.addRow({TextTable::integer(
                      static_cast<long long>(plan.min_interval)),
                  seq,
                  TextTable::integer(
                      static_cast<long long>(plan.latency)),
                  TextTable::num(std::exp(plan.log_fail_rate))});
    }
    b.print(stdout);

    std::printf("\npaper anchor: a 128 MB LLC at 83M accesses/s "
                "gets safe distance %d (paper: 3)\n",
                planner.safeDistance(kPeakLlcOpsPerSecond));
    return 0;
}
