/**
 * @file
 * Safe-distance computation and shift-sequence planning
 * (paper Sec. 5.2, Algorithm 1, Table 3).
 *
 * A shift request longer than the safe distance is decomposed into a
 * sequence of shorter shifts. Among all decompositions the planner
 * selects the latency-minimal one whose summed uncorrectable-error
 * rate still meets the reliability budget. The planner enumerates the
 * Pareto front over (error rate, latency) by dynamic programming;
 * each Pareto point also yields the minimum request interval at which
 * it is safe, which is exactly the paper's adapter table (Table 3b).
 *
 * The reliability budget back-solves from Table 3: a per-operation
 * failure rate of p at request interval T_inter seconds is acceptable
 * when p <= T_inter / T_mttf. The constant reproducing the paper's
 * Table 3 rows is T_mttf ~= 1.615e11 s (back-solved from
 * "interval 2445260 cycles for the {7} sequence").
 */

#ifndef RTM_CONTROL_PLANNER_HH
#define RTM_CONTROL_PLANNER_HH

#include <cstdint>
#include <vector>

#include "control/sts.hh"
#include "device/error_model.hh"
#include "util/logging.hh"

namespace rtm
{

/** Reliability budget back-solved from the paper's Table 3. */
constexpr double kDefaultSafeMttfSeconds = 1.61e11;

/** One Pareto-optimal decomposition of a shift request. */
struct SequencePlan
{
    std::vector<int> parts;     //!< sub-shift distances, descending
    double log_fail_rate = 0.0; //!< summed uncorrectable log-rate
    Cycles latency = 0;         //!< total shift cycles
    Cycles min_interval = 0;    //!< smallest safe request interval
};

/**
 * Planner for one protection configuration.
 */
class ShiftPlanner
{
  public:
    /**
     * @param model      position-error model (uncorrectable rates)
     * @param timing     STS timing (with p-ECC check latency)
     * @param correct    p-ECC correction strength m (failures are
     *                   errors of magnitude > m)
     * @param max_part   longest single shift the stripe supports
     * @param mttf_target_s reliability budget (see header comment)
     */
    ShiftPlanner(const PositionErrorModel *model,
                 const StsTiming &timing, int correct, int max_part,
                 double mttf_target_s = kDefaultSafeMttfSeconds);

    /**
     * Pareto front of decompositions for a request of `distance`
     * steps, ordered by increasing latency (decreasing rate).
     */
    const std::vector<SequencePlan> &paretoFront(int distance) const
    {
        if (distance < 1 || distance > max_part_)
            rtm_panic("paretoFront(%d) outside [1, %d]", distance,
                      max_part_);
        return fronts_[static_cast<size_t>(distance)];
    }

    /**
     * Latency-minimal plan whose failure rate is safe at the given
     * request interval (cycles since the previous shift). Falls back
     * to the safest plan when even it exceeds the budget.
     */
    const SequencePlan &planFor(int distance,
                                Cycles interval_cycles) const
    {
        return paretoFront(distance)[planIndexFor(distance,
                                                  interval_cycles)];
    }

    /**
     * Index into paretoFront(distance) of the plan planFor() would
     * return. The adaptive ShiftAdapter::choose() returns it, so
     * callers that cache per-plan costs (RmBank's memo) share the
     * exact selection rule.
     */
    size_t planIndexFor(int distance, Cycles interval_cycles) const
    {
        const auto &front = paretoFront(distance);
        for (size_t i = 0; i < front.size(); ++i) {
            if (front[i].min_interval <= interval_cycles)
                return i;
        }
        return front.size() - 1; // safest available
    }

    /**
     * Worst-case-safe plan for a sustained intensity
     * (operations per second): the paper's "p-ECC-S worst" policy.
     */
    const SequencePlan &planForIntensity(int distance,
                                         double ops_per_second) const;

    /**
     * Largest single-shift distance that meets the budget at the
     * given sustained intensity (paper Table 3a).
     */
    int safeDistance(double ops_per_second) const;

    /**
     * Per-operation failure (uncorrectable error) log-rate of a
     * single shift of the given distance.
     */
    double logFailRate(int distance) const;

    /** Longest supported single shift. */
    int maxPart() const { return max_part_; }

  private:
    const PositionErrorModel *model_;
    StsTiming timing_;
    int correct_;
    int max_part_;
    double mttf_target_s_;

    /** fronts_[d] = Pareto plans for a d-step request (d >= 1). */
    std::vector<std::vector<SequencePlan>> fronts_;

    void buildFronts();
};

} // namespace rtm

#endif // RTM_CONTROL_PLANNER_HH
