/**
 * @file
 * Ablation: the sub-threshold shift (STS) stage on/off.
 *
 * STS trades error *type*: without stage 2, most failed shifts rest
 * in flat regions (stop-in-middle, unreadable and undirectable);
 * with it, that mass becomes +/-1 out-of-step errors the cyclic code
 * can correct. The latency price is the fixed 2-cycle stage-2 tail
 * on every shift.
 */

#include <cmath>
#include <cstdio>

#include "common.hh"
#include "control/sts.hh"
#include "device/fitted_model.hh"
#include "device/montecarlo.hh"

using namespace rtm;

int
main()
{
    banner("Ablation", "sub-threshold shift on/off");

    DeviceParams params;
    PositionErrorMonteCarlo mc(params, 99);
    FittedErrorModel fit = mc.fitModel(200000);

    std::printf("error-type split per shift distance:\n\n");
    TextTable t({"distance", "stop-in-middle (no STS)",
                 "out-of-step raw (no STS)",
                 "out-of-step after STS"});
    for (int d : {1, 2, 3, 4, 5, 6, 7}) {
        double mid = 0.0, raw = 0.0, sts = 0.0;
        for (int k = -3; k <= 3; ++k) {
            if (k != 0) {
                raw += std::exp(fit.logProbStepRaw(d, k));
                sts += std::exp(fit.logProbStep(d, k));
            }
            if (k < 3)
                mid += std::exp(fit.logProbStopInMiddle(d, k));
        }
        t.addRow({TextTable::integer(d), TextTable::num(mid),
                  TextTable::num(raw), TextTable::num(sts)});
    }
    t.print(stdout);

    std::printf("\nstop-in-middle errors leave reads undefined and "
                "have no recoverable direction: every one is a "
                "failure. After STS the same mass appears as +/-1 "
                "out-of-step errors, which SECDED p-ECC corrects.\n");

    StsTiming with_sts;
    StsTiming no_sts(kDefaultClockHz, kStage1PerStepSeconds, 0.0, 0.0);
    std::printf("\nlatency price of stage 2 (cycles/shift):\n");
    TextTable lat({"distance", "stage-1 only", "with STS",
                   "overhead"});
    for (int d : {1, 4, 7}) {
        Cycles a = no_sts.shiftCycles(d);
        Cycles b = with_sts.shiftCycles(d);
        lat.addRow({TextTable::integer(d),
                    TextTable::integer(static_cast<long long>(a)),
                    TextTable::integer(static_cast<long long>(b)),
                    TextTable::integer(
                        static_cast<long long>(b - a))});
    }
    lat.print(stdout);
    std::printf("\nrule of thumb (Sec. 4.1): longer shifts amortise "
                "the fixed stage-2 cost.\n");
    return 0;
}
