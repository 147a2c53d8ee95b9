/**
 * @file
 * Cycle-level shift-controller state machine (paper Fig. 9).
 *
 * The behavioural ShiftController charges latency from the analytic
 * StsTiming formulas; this FSM instead sequences the hardware blocks
 * of the paper's error-aware controller cycle by cycle:
 *
 *   IDLE -> STAGE1 (two-stage logic drives the high-current pulse,
 *            one timer tick per cycle)
 *        -> STAGE2 (voltage divider selects the sub-threshold level
 *            for the fixed 1 ns tail)
 *        -> CHECK  (cyclic adder produces the expected p-ECC bits,
 *            XOR compare against the window read)
 *        -> CORRECT (counter-shift micro-op re-entering STAGE1)
 *        -> DONE
 *
 * Tests cross-validate the FSM's emergent cycle counts against
 * StsTiming - the two must agree exactly, which pins down that the
 * architectural latency numbers used across the evaluation are
 * implementable by this datapath. No program runs the FSM, so it is
 * built only into control_fsm_test.
 */

#ifndef RTM_CONTROL_FSM_HH
#define RTM_CONTROL_FSM_HH

#include <cstdint>

#include "control/sts.hh"

namespace rtm
{

/** Controller datapath states (Fig. 9 blocks). */
enum class FsmState
{
    Idle,
    Stage1,  //!< high-current drive pulse
    Stage2,  //!< sub-threshold tail
    Check,   //!< p-ECC window compare
    Correct, //!< counter-shift issue (re-enters Stage1)
    Done
};

/** Human-readable state name. */
const char *fsmStateName(FsmState s);

/**
 * One shift operation's life through the controller pipeline.
 */
class ShiftFsm
{
  public:
    /**
     * @param timing   the STS timing model the datapath implements
     * @param has_pecc whether a CHECK stage exists (p-ECC present)
     */
    explicit ShiftFsm(const StsTiming &timing, bool has_pecc = true);

    /**
     * Issue an N-step shift request. @pre the FSM is Idle or Done.
     */
    void issue(int steps);

    /**
     * Advance one clock cycle. Returns the state *after* the tick.
     * When the CHECK stage completes, `window_mismatch` (set via
     * setCheckResult before the check finishes) decides whether the
     * FSM retires or issues a correction micro-op.
     */
    FsmState tick();

    /** Provide the p-ECC compare outcome for the pending check. */
    void setCheckResult(bool mismatch, int inferred_error);

    /** Current state. */
    FsmState state() const { return state_; }

    /** Cycles elapsed since the last issue(). */
    Cycles elapsed() const { return elapsed_; }

    /** True once the operation has retired. */
    bool done() const { return state_ == FsmState::Done; }

    /** Correction micro-ops issued for the current operation. */
    int corrections() const { return corrections_; }

    /** Run the FSM to completion and return the total cycles. */
    Cycles run(int steps);

  private:
    StsTiming timing_;
    bool has_pecc_;
    FsmState state_ = FsmState::Idle;
    Cycles elapsed_ = 0;
    Cycles stage_left_ = 0;
    int pending_steps_ = 0;
    bool mismatch_ = false;
    int inferred_error_ = 0;
    int corrections_ = 0;

    Cycles stage1Cycles(int steps) const;
    Cycles stage2Cycles() const;
    Cycles checkCycles() const;

    void enter(FsmState s, Cycles duration);
};

} // namespace rtm

#endif // RTM_CONTROL_FSM_HH
