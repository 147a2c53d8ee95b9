#include "sts.hh"

#include <cmath>

#include "util/logging.hh"

namespace rtm
{

StsTiming::StsTiming(double clock_hz, double stage1_per_step,
                     double stage2_pulse, double pecc_check)
    : clock_hz_(clock_hz), stage1_per_step_(stage1_per_step),
      stage2_pulse_(stage2_pulse), pecc_check_(pecc_check)
{
    if (clock_hz_ <= 0.0)
        rtm_fatal("clock frequency must be positive");
    for (int n = 1; n <= kTabulatedSteps; ++n)
        cycles_[static_cast<size_t>(n)] = formulaCycles(n);
}

Seconds
StsTiming::stage1Seconds(int steps) const
{
    if (steps < 1)
        rtm_panic("stage1Seconds(%d): need at least one step", steps);
    return stage1_per_step_ * static_cast<double>(steps);
}

Cycles
StsTiming::formulaCycles(int steps) const
{
    // Stage 1 rounds up to whole cycles; stage 2 and the p-ECC check
    // are fixed-width tails (2 cycles and ceil(check) respectively).
    Cycles stage1 = secondsToCycles(stage1Seconds(steps), clock_hz_);
    Cycles stage2 = secondsToCycles(stage2_pulse_, clock_hz_);
    Cycles check = secondsToCycles(pecc_check_, clock_hz_);
    return stage1 + stage2 + check;
}

Seconds
StsTiming::shiftSeconds(int steps) const
{
    return cyclesToSeconds(shiftCycles(steps), clock_hz_);
}

} // namespace rtm
