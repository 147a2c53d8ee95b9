/**
 * @file
 * Ablation: head-position management (the "head management" line of
 * work the paper's introduction credits for racetrack cache
 * viability).
 *
 * Compares the stay / return-home / center idle-drift policies on
 * shift latency, energy and reliability for hot and bursty access
 * patterns. Centering halves the worst-case seek after an idle
 * period but spends off-path shifts (and their failure
 * opportunities) to get there.
 */

#include <cstdio>

#include "common.hh"
#include "mem/rm_bank.hh"
#include "util/rng.hh"

using namespace rtm;

namespace
{

struct Result
{
    Cycles shift_cycles;
    uint64_t steps;
    double due;
};

Result
run(HeadPolicy policy, bool bursty)
{
    PaperCalibratedErrorModel model;
    RmBankConfig cfg;
    cfg.line_frames = 256;
    cfg.scheme = Scheme::PeccSAdaptive;
    cfg.head_policy = policy;
    RmBank bank(cfg, &model, racetrackL3());

    Rng dice(17);
    Cycles t = 0;
    for (int i = 0; i < 3000; ++i) {
        uint64_t frame = dice.uniformInt(64);
        bank.accessFrame(frame, t);
        // Hot stream vs bursts separated by long idle gaps.
        if (bursty && i % 16 == 15)
            t += 200000;
        else
            t += 60;
    }
    return {bank.stats().shift_cycles, bank.stats().shift_steps,
            bank.stats().reliability.expectedDue()};
}

} // namespace

int
main()
{
    banner("Ablation", "head-position management policies");

    for (bool bursty : {false, true}) {
        std::printf("%s access pattern:\n",
                    bursty ? "bursty (idle gaps)" : "hot streaming");
        TextTable t({"policy", "on-path shift cycles",
                     "total steps", "expected DUE (x1e-12)"});
        for (HeadPolicy p : {HeadPolicy::Stay,
                             HeadPolicy::ReturnHome,
                             HeadPolicy::Center}) {
            Result r = run(p, bursty);
            t.addRow({enumToken(p),
                      TextTable::integer(
                          static_cast<long long>(r.shift_cycles)),
                      TextTable::integer(
                          static_cast<long long>(r.steps)),
                      TextTable::fixed(r.due * 1e12, 2)});
        }
        t.print(stdout);
        std::printf("\n");
    }

    std::printf("centering pays off only when idle gaps are long "
                "enough to hide the drift AND accesses are spread "
                "over the segment; under hot streaming the policies "
                "coincide because the heads never get a chance to "
                "drift.\n");
    return 0;
}
