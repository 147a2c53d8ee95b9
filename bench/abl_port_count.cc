/**
 * @file
 * Ablation: number of access ports per stripe (paper Sec. 2.1).
 *
 * More read/write ports shorten segments (less shifting, shorter
 * safe-distance exposure) but pay transistor area; fewer ports
 * maximise density but lengthen shifts. Sweeps port counts for a
 * 64-domain stripe and reports the density / latency / reliability
 * triangle with SECDED p-ECC-S protection.
 */

#include <cmath>
#include <cstdio>

#include "common.hh"
#include "control/planner.hh"
#include "model/area.hh"
#include "model/reliability.hh"

using namespace rtm;

int
main()
{
    banner("Ablation", "access ports per 64-domain stripe");

    PaperCalibratedErrorModel model;
    AreaModel area;
    const double ops = kPeakLlcOpsPerSecond;
    const double stripes = kStripesPerLine;
    StsTiming timing(kDefaultClockHz, kStage1PerStepSeconds,
                     kStage2PulseSeconds, kInPathCheckSeconds);

    TextTable t({"ports", "Lseg", "area F^2/b", "avg dist",
                 "avg shift cyc", "DUE MTTF"});
    for (int ports : {2, 4, 8, 16, 32}) {
        int lseg = kDomainsPerStripe / ports;
        PeccConfig c;
        c.num_segments = ports;
        c.seg_len = lseg;
        c.correct = 1;
        c.variant = PeccVariant::Standard;

        ShiftPlanner planner(&model, timing, 1, lseg - 1);
        ReliabilityModel rel(&model, Scheme::PeccSAdaptive);
        double cyc = 0.0, dist = 0.0, due = 0.0;
        int n = 0;
        for (int from = 0; from < lseg; ++from) {
            for (int to = 0; to < lseg; ++to) {
                int d = std::abs(to - from);
                ++n;
                dist += d;
                if (!d)
                    continue;
                const SequencePlan &plan =
                    planner.planForIntensity(d, ops);
                cyc += static_cast<double>(plan.latency);
                due += std::exp(rel.sequence(plan.parts).log_due);
            }
        }
        double mttf = steadyStateMttf(std::log(due / n),
                                      ops * stripes);
        t.addRow({TextTable::integer(ports),
                  TextTable::integer(lseg),
                  TextTable::fixed(area.areaPerDataBit(c), 2),
                  TextTable::fixed(dist / n, 2),
                  TextTable::fixed(cyc / n, 1), mttfCell(mttf)});
    }
    t.print(stdout);

    std::printf("\nthe paper's default (8 ports, Lseg = 8) sits at "
                "the knee: halving ports doubles average shift "
                "distance and cuts MTTF, while doubling them pays "
                "transistor area for modest latency gains "
                "(cf. Fig. 7's port-cost curve).\n");
    return 0;
}
