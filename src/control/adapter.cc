#include "adapter.hh"

#include <cmath>

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
}

const SequencePlan &
ShiftAdapter::fixedPartsPlan(int distance, int part)
{
    scratch_.parts.clear();
    scratch_.log_fail_rate =
        -std::numeric_limits<double>::infinity();
    scratch_.latency = 0;
    int remaining = distance;
    while (remaining > 0) {
        int p = std::min(remaining, part);
        scratch_.parts.push_back(p);
        scratch_.log_fail_rate = logSumExp(
            scratch_.log_fail_rate, planner_->logFailRate(p));
        remaining -= p;
    }
    scratch_.min_interval = 0;
    // Latency: sum of per-part shift cycles via the planner's Pareto
    // data is not available for arbitrary splits, so recompute from
    // the front of each single part (front of d=p always contains the
    // one-shot plan {p} as its fastest element).
    Cycles lat = 0;
    for (int p : scratch_.parts)
        lat += planner_->paretoFront(p).front().latency;
    scratch_.latency = lat;
    return scratch_;
}

const SequencePlan &
ShiftAdapter::cautiousPlan(int distance)
{
    if (distance < 1 || distance > planner_->maxPart())
        rtm_panic("adapter cautiousPlan(%d) outside [1, %d]",
                  distance, planner_->maxPart());
    return fixedPartsPlan(distance, 1);
}

} // namespace rtm
