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
 *
 * The adapter is table-driven: plans(d) lists the sequences the
 * policy may pick for a d-step request and choose() returns an index
 * into it. Callers that precompute per-plan costs (RmBank's memo)
 * index their own tables with the same choice.
 */

#ifndef RTM_CONTROL_ADAPTER_HH
#define RTM_CONTROL_ADAPTER_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "control/planner.hh"
#include "model/tech.hh"
#include "util/logging.hh"

namespace rtm
{

/**
 * Stateful policy engine: owns the memory-wide interval counter and
 * the per-distance plan tables.
 */
class ShiftAdapter
{
  public:
    /**
     * @param planner   sequence planner (not owned; must outlive the
     *                  adapter)
     * @param policy    policy flavour
     * @param peak_ops_per_second peak access intensity used by the
     *        WorstCase policy to fix its safe distance
     */
    ShiftAdapter(const ShiftPlanner *planner, ShiftPolicy policy,
                 double peak_ops_per_second);

    /**
     * Plans the policy may pick for a `distance`-step request, in the
     * order they are tried: the planner's Pareto front under Adaptive,
     * a one-entry table otherwise ({d} for Unconstrained, d one-step
     * shifts for StepByStep, chunks of the safe distance for
     * WorstCase). The tables live as long as the adapter and its
     * planner.
     */
    const std::vector<SequencePlan> &plans(int distance) const
    {
        checkDistance(distance);
        return policy_ == ShiftPolicy::Adaptive
                   ? planner_->paretoFront(distance)
                   : fixed_[static_cast<size_t>(distance)];
    }

    /**
     * Record a request of `distance` steps issued at absolute time
     * `now_cycles` (updates the interval counter) and return the
     * index into plans(distance) of the sequence to issue.
     */
    size_t choose(int distance, Cycles now_cycles)
    {
        checkDistance(distance);
        // A cold memory has been idle "forever": the adaptive policy
        // may use its most permissive plan on the very first shift.
        if (first_)
            last_interval_ = std::numeric_limits<Cycles>::max();
        else
            last_interval_ = now_cycles > last_request_
                                 ? now_cycles - last_request_
                                 : 0;
        first_ = false;
        last_request_ = now_cycles;
        return policy_ == ShiftPolicy::Adaptive
                   ? planner_->planIndexFor(distance, last_interval_)
                   : 0;
    }

    /** The sequence choose() picks: plans(d)[choose(d, now)]. */
    const SequencePlan &plan(int distance, Cycles now_cycles)
    {
        const size_t i = choose(distance, now_cycles);
        return plans(distance)[i];
    }

    /**
     * Most conservative sequence for `distance` steps: 1-step
     * sub-shifts regardless of policy. The recovery ladder re-seeks
     * with this after a failed episode — when the stripe has just
     * misbehaved, the gentlest drive is the one to finish with. Does
     * not touch the interval counter (recovery traffic must not make
     * the adaptive policy believe intensity rose).
     */
    const SequencePlan &cautiousPlan(int distance) const
    {
        checkDistance(distance);
        return one_step_[static_cast<size_t>(distance)];
    }

    /** Fixed safe distance of the WorstCase policy. */
    int worstCaseSafeDistance() const { return worst_case_distance_; }

    /** Observed interval before the most recent request. */
    Cycles lastInterval() const { return last_interval_; }

    /** Time of the most recent request (0 before the first). */
    Cycles lastRequest() const { return last_request_; }

  private:
    const ShiftPlanner *planner_;
    ShiftPolicy policy_;
    int worst_case_distance_;
    Cycles last_request_ = 0;
    Cycles last_interval_ = 0;
    bool first_ = true;
    /** fixed_[d]: the one-entry table of a non-adaptive policy. */
    std::vector<std::vector<SequencePlan>> fixed_;
    /** one_step_[d]: d one-step shifts (cautiousPlan). */
    std::vector<SequencePlan> one_step_;

    void checkDistance(int distance) const
    {
        if (distance < 1 || distance > planner_->maxPart())
            rtm_panic("adapter distance %d outside [1, %d]", distance,
                      planner_->maxPart());
    }

    /** `distance` steps in chunks of at most `part`. */
    SequencePlan fixedPartsPlan(int distance, int part) const;
};

} // namespace rtm

#endif // RTM_CONTROL_ADAPTER_HH
