/**
 * @file
 * Figure 12: DUE MTTF sensitivity to the stripe configuration
 * (32/64/128 data domains split into different segment shapes), for
 * p-ECC-S adaptive and p-ECC-O, at a fixed access intensity.
 *
 * Distances are drawn uniformly over the segment (random target
 * index), decomposed by each scheme's policy, and the resulting
 * uncorrectable rates feed a steady-state MTTF at the paper's LLC
 * intensity. Expected shape: p-ECC-S improves as segments shorten
 * (shorter average distances), p-ECC-O is flat (always 1-step), and
 * both coincide at Lseg = 2.
 */

#include <cmath>
#include <cstdio>

#include "common.hh"
#include "control/planner.hh"
#include "model/reliability.hh"

using namespace rtm;

namespace
{

/** Average per-access DUE log-rate for one scheme and shape. */
double
logDuePerAccess(const PaperCalibratedErrorModel &model, int lseg,
                Scheme scheme, double ops_per_second)
{
    StsTiming timing(kDefaultClockHz, kStage1PerStepSeconds,
                     kStage2PulseSeconds, kInPathCheckSeconds);
    ShiftPlanner planner(&model, timing, 1, lseg - 1);
    ReliabilityModel rel(&model, scheme);

    // Uniform random target index: distance |target - current| with
    // both uniform -> triangular distribution; approximate with all
    // (from, to) pairs weighted equally.
    double acc = 0.0;
    int samples = 0;
    for (int from = 0; from < lseg; ++from) {
        for (int to = 0; to < lseg; ++to) {
            int d = std::abs(to - from);
            ++samples;
            if (d == 0)
                continue;
            std::vector<int> parts;
            if (schemeRow(scheme).policy == ShiftPolicy::StepByStep) {
                parts.assign(static_cast<size_t>(d), 1);
            } else {
                parts = planner.planForIntensity(d, ops_per_second)
                            .parts;
            }
            acc += std::exp(rel.sequence(parts).log_due);
        }
    }
    return std::log(acc / samples);
}

} // namespace

int
main()
{
    banner("Figure 12", "MTTF sensitivity vs stripe configuration");

    PaperCalibratedErrorModel model;
    const double ops = kPeakLlcOpsPerSecond;
    const double stripes = kStripesPerLine;

    struct Shape { int bits; int segments; int lseg; };
    const Shape shapes[] = {
        {32, 16, 2}, {32, 8, 4}, {32, 4, 8}, {32, 2, 16},
        {64, 32, 2}, {64, 16, 4}, {64, 8, 8}, {64, 4, 16},
        {64, 2, 32},
        {128, 64, 2}, {128, 32, 4}, {128, 16, 8}, {128, 8, 16},
        {128, 4, 32}, {128, 2, 64},
    };

    TextTable t({"config (seg x len)", "p-ECC-S adaptive",
                 "p-ECC-O", "both meet 10y"});
    for (const auto &s : shapes) {
        double lp_adaptive = logDuePerAccess(model, s.lseg,
                                             Scheme::PeccSAdaptive,
                                             ops);
        double lp_o =
            logDuePerAccess(model, s.lseg, Scheme::PeccO, ops);
        double mttf_adaptive =
            steadyStateMttf(lp_adaptive, ops * stripes);
        double mttf_o = steadyStateMttf(lp_o, ops * stripes);
        char label[32];
        std::snprintf(label, sizeof(label), "%db: %dx%d", s.bits,
                      s.segments, s.lseg);
        bool ok = mttf_adaptive >= 10 * kSecondsPerYear &&
                  mttf_o >= 10 * kSecondsPerYear;
        t.addRow({label, mttfCell(mttf_adaptive), mttfCell(mttf_o),
                  ok ? "yes" : "no"});
    }
    t.print(stdout);

    std::printf("\nshape claims (paper Sec. 6.2): p-ECC-S MTTF "
                "rises as segments shorten; p-ECC-O is flat across "
                "configurations; the two coincide at Lseg = 2; "
                "p-ECC-O achieves the highest MTTF overall\n");
    return 0;
}
