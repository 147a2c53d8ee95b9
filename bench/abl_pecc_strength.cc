/**
 * @file
 * Ablation: p-ECC correction strength m (Sec. 4.2.3).
 *
 * Sweeping m trades reliability against storage and port overhead:
 * each extra step of correction needs one more code read port, two
 * more guard domains and a longer code region, while the residual
 * failure rate drops by the ratio between consecutive |k| rates
 * (~1e-15 per step at 1-step shifts).
 */

#include <cmath>
#include <cstdio>

#include "common.hh"
#include "codec/layout.hh"
#include "device/error_model.hh"
#include "model/area.hh"
#include "model/reliability.hh"
#include "util/prob.hh"

using namespace rtm;

int
main()
{
    banner("Ablation", "p-ECC correction strength sweep");

    PaperCalibratedErrorModel model;
    AreaModel area;
    const double intensity = kPeakLlcOpsPerSecond * kStripesPerLine;

    TextTable t({"m", "detects", "code domains", "read ports",
                 "area/bit (F^2)", "DUE rate (7-step)",
                 "DUE MTTF @LLC"});
    for (int m = 0; m <= 3; ++m) {
        PeccConfig c;
        c.correct = m;
        c.variant = PeccVariant::Standard;
        PeccLayout lay = computeLayout(c);
        // Residual failures: everything beyond the correction
        // strength (the |m+1| alias and deeper).
        double lp = model.logProbAtLeast(7, m + 1);
        double mttf = steadyStateMttf(lp, intensity);
        t.addRow({TextTable::integer(m),
                  TextTable::integer(m + 1),
                  TextTable::integer(lay.code_len),
                  TextTable::integer(lay.extraReadPorts()),
                  TextTable::fixed(area.areaPerDataBit(c), 2),
                  TextTable::num(std::exp(lp)), mttfCell(mttf)});
    }
    t.print(stdout);

    std::printf("\nSECDED (m=1) is the paper's sweet spot: m=0 "
                "cannot correct the dominant +/-1 errors at all, "
                "while m=2 pays another port and four more domains "
                "to suppress a rate that safe-distance policies "
                "already push below the target.\n");
    return 0;
}
