/**
 * @file
 * Shift-policy selection (paper Sec. 5.2-5.3).
 *
 * Three policies map an access request onto a shift sequence:
 *
 *  - Unconstrained: always one shift of the full distance (the
 *    baseline "RM w/o p-ECC" behaviour and the plain p-ECC scheme).
 *  - WorstCase ("p-ECC-S worst"): a fixed safe distance computed from
 *    the memory's peak access intensity caps every sub-shift.
 *  - Adaptive ("p-ECC-S adaptive"): an interval counter measures the
 *    time since the last shift; the adapter table (Pareto fronts from
 *    the planner) picks the fastest sequence that is safe at the
 *    observed run-time intensity.
 *
 * The OverheadRegion variant (p-ECC-O) is inherently step-by-step;
 * its policy decomposes every request into 1-step shifts.
 */

#ifndef RTM_CONTROL_ADAPTER_HH
#define RTM_CONTROL_ADAPTER_HH

#include <cstdint>
#include <limits>

#include "control/planner.hh"
#include "model/tech.hh"
#include "util/logging.hh"

namespace rtm
{

/**
 * Stateful policy engine: owns the interval counter and consults the
 * planner's Pareto tables.
 */
class ShiftAdapter
{
  public:
    /**
     * @param planner   sequence planner (not owned)
     * @param policy    policy flavour
     * @param peak_ops_per_second peak access intensity used by the
     *        WorstCase policy to fix its safe distance
     */
    ShiftAdapter(const ShiftPlanner *planner, ShiftPolicy policy,
                 double peak_ops_per_second);

    /**
     * Choose the sequence for a request of `distance` steps issued at
     * absolute time `now_cycles`. Updates the interval counter.
     * The returned plan is owned by the planner's tables (except for
     * trivial single-part plans, which are returned from a scratch
     * slot valid until the next call).
     */
    const SequencePlan &plan(int distance, Cycles now_cycles)
    {
        if (distance < 1 || distance > planner_->maxPart())
            rtm_panic("adapter plan(%d) outside [1, %d]", distance,
                      planner_->maxPart());
        Cycles interval;
        if (first_) {
            interval = std::numeric_limits<Cycles>::max();
            first_ = false;
        } else {
            interval = now_cycles > last_request_
                           ? now_cycles - last_request_
                           : 0;
        }
        last_interval_ = interval;
        last_request_ = now_cycles;

        switch (policy_) {
          case ShiftPolicy::Unconstrained:
            return planner_->paretoFront(distance).front();
          case ShiftPolicy::StepByStep:
            return fixedPartsPlan(distance, 1);
          case ShiftPolicy::WorstCase:
            return fixedPartsPlan(distance, worst_case_distance_);
          case ShiftPolicy::Adaptive:
            return planner_->planFor(distance, interval);
        }
        rtm_panic("unreachable policy");
    }

    /**
     * Most conservative sequence for `distance` steps: 1-step
     * sub-shifts regardless of policy. The recovery ladder re-seeks
     * with this after a failed episode — when the stripe has just
     * misbehaved, the gentlest drive is the one to finish with. Does
     * not touch the interval counter (recovery traffic must not make
     * the adaptive policy believe intensity rose).
     */
    const SequencePlan &cautiousPlan(int distance);

    /** Fixed safe distance of the WorstCase policy. */
    int worstCaseSafeDistance() const { return worst_case_distance_; }

    /** Policy flavour in effect. */
    ShiftPolicy policy() const { return policy_; }

    /** Observed interval before the most recent request. */
    Cycles lastInterval() const { return last_interval_; }

  private:
    const ShiftPlanner *planner_;
    ShiftPolicy policy_;
    int worst_case_distance_;
    Cycles last_request_ = 0;
    Cycles last_interval_ = 0;
    bool first_ = true;
    SequencePlan scratch_;

    const SequencePlan &fixedPartsPlan(int distance, int part);
};

} // namespace rtm

#endif // RTM_CONTROL_ADAPTER_HH
