#include "adapter.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/prob.hh"

namespace rtm
{

ShiftAdapter::ShiftAdapter(const ShiftPlanner *planner,
                           ShiftPolicy policy,
                           double peak_ops_per_second)
    : planner_(planner), policy_(policy)
{
    if (!planner_)
        rtm_fatal("adapter needs a planner");
    worst_case_distance_ =
        planner_->safeDistance(peak_ops_per_second);
    const int max_part = planner_->maxPart();
    fixed_.resize(static_cast<size_t>(max_part) + 1);
    one_step_.resize(static_cast<size_t>(max_part) + 1);
    for (int d = 1; d <= max_part; ++d) {
        one_step_[static_cast<size_t>(d)] = fixedPartsPlan(d, 1);
        switch (policy_) {
          case ShiftPolicy::Unconstrained:
            fixed_[static_cast<size_t>(d)] = {fixedPartsPlan(d, d)};
            break;
          case ShiftPolicy::StepByStep:
            fixed_[static_cast<size_t>(d)] = {fixedPartsPlan(d, 1)};
            break;
          case ShiftPolicy::WorstCase:
            fixed_[static_cast<size_t>(d)] = {
                fixedPartsPlan(d, worst_case_distance_)};
            break;
          case ShiftPolicy::Adaptive:
            break; // plans() reads the planner's Pareto front
        }
    }
}

SequencePlan
ShiftAdapter::fixedPartsPlan(int distance, int part) const
{
    SequencePlan plan;
    plan.log_fail_rate = -std::numeric_limits<double>::infinity();
    int remaining = distance;
    while (remaining > 0) {
        const int p = std::min(remaining, part);
        plan.parts.push_back(p);
        plan.log_fail_rate =
            logSumExp(plan.log_fail_rate, planner_->logFailRate(p));
        // The fastest plan of a p-step front is the one-shot {p}.
        plan.latency += planner_->paretoFront(p).front().latency;
        remaining -= p;
    }
    return plan;
}

} // namespace rtm
