/**
 * @file
 * Sub-threshold shift (STS) timing model (paper Sec. 4.1).
 *
 * A shift is driven in two stages: stage 1 applies a 2*J0 pulse whose
 * width is the ideal N-step transit time (0.4 ns per step at the
 * calibrated drive), stage 2 applies a 1 ns sub-threshold pulse that
 * walks any wall still in a flat region into the next notch without
 * being able to pull walls out of notches. At the 2 GHz system clock
 * this yields ceil(0.4/0.5 * N) + 2 cycles for an N-step shift: 3
 * cycles for 1 step, 8 cycles for 7 steps (paper's rule of thumb that
 * long shifts amortise the fixed stage-2 cost).
 */

#ifndef RTM_CONTROL_STS_HH
#define RTM_CONTROL_STS_HH

#include <array>
#include <cstddef>

#include "device/timing.hh"
#include "util/units.hh"

namespace rtm
{

/** Timing/latency model of the two-stage STS shift. */
class StsTiming
{
  public:
    /**
     * @param clock_hz      controller clock (default 2 GHz)
     * @param stage1_per_step stage-1 drive seconds per step
     * @param stage2_pulse  stage-2 sub-threshold pulse seconds
     * @param pecc_check    p-ECC detection seconds folded into the
     *                      shift pipeline (0 disables; the paper's
     *                      detection takes ~0.3 ns = 1 extra cycle)
     */
    explicit StsTiming(double clock_hz = kDefaultClockHz,
                       double stage1_per_step = kStage1PerStepSeconds,
                       double stage2_pulse = kStage2PulseSeconds,
                       double pecc_check = 0.0);

    /** Shift distances whose cycle count is tabulated at
     *  construction; longer shifts evaluate the formula directly. */
    static constexpr int kTabulatedSteps = 64;

    /** Cycles for one N-step shift operation (N >= 1). */
    Cycles shiftCycles(int steps) const
    {
        if (steps >= 1 && steps <= kTabulatedSteps)
            return cycles_[static_cast<std::size_t>(steps)];
        return formulaCycles(steps);
    }

    /** Seconds for one N-step shift operation. */
    Seconds shiftSeconds(int steps) const;

    /** Stage-1 pulse width for N steps, seconds. */
    Seconds stage1Seconds(int steps) const;

    /** Stage-2 pulse width, seconds. */
    Seconds stage2Seconds() const { return stage2_pulse_; }

    /** Clock frequency, Hz. */
    double clockHz() const { return clock_hz_; }

  private:
    double clock_hz_;
    double stage1_per_step_;
    double stage2_pulse_;
    double pecc_check_;

    /** cycles_[n] = formulaCycles(n) for n in 1..kTabulatedSteps. */
    std::array<Cycles, kTabulatedSteps + 1> cycles_{};

    /** The shift-cycle formula the table is filled from. */
    Cycles formulaCycles(int steps) const;
};

} // namespace rtm

#endif // RTM_CONTROL_STS_HH
