#include "planner.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.hh"
#include "util/prob.hh"

namespace rtm
{

namespace
{

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/** Smallest interval (cycles) at which a plan's rate is safe. */
Cycles
minSafeInterval(double log_fail_rate, double mttf_target_s,
                double clock_hz)
{
    if (log_fail_rate == kNegInf)
        return 0;
    // p <= T_inter / T_mttf  =>  T_inter >= p * T_mttf.
    double seconds = std::exp(log_fail_rate) * mttf_target_s;
    double cycles = std::ceil(seconds * clock_hz);
    if (cycles >= 1e18)
        return static_cast<Cycles>(1e18);
    return static_cast<Cycles>(cycles);
}

} // anonymous namespace

ShiftPlanner::ShiftPlanner(const PositionErrorModel *model,
                           const StsTiming &timing, int correct,
                           int max_part, double mttf_target_s)
    : model_(model), timing_(timing), correct_(correct),
      max_part_(max_part), mttf_target_s_(mttf_target_s)
{
    if (!model_)
        rtm_fatal("planner needs an error model");
    if (max_part_ < 1)
        rtm_fatal("planner needs max_part >= 1");
    buildFronts();
}

double
ShiftPlanner::logFailRate(int distance) const
{
    // Failures are errors the p-ECC cannot correct: |k| > m.
    return model_->logProbAtLeast(distance, correct_ + 1);
}

void
ShiftPlanner::buildFronts()
{
    // DP over remaining distance. front[d] holds Pareto-optimal
    // (log_fail_rate, latency) plans; a plan for distance d extends a
    // plan for d - p with one more part p <= min(d, max_part).
    fronts_.assign(static_cast<size_t>(max_part_) + 1, {});
    fronts_[0].push_back(SequencePlan{{}, kNegInf, 0, 0});

    // Per-part rate/latency are reused across every distance of the
    // DP; hoist them out of the O(max_part^2) candidate loop.
    std::vector<double> part_rates(static_cast<size_t>(max_part_) + 1);
    std::vector<Cycles> part_lats(static_cast<size_t>(max_part_) + 1);
    for (int p = 1; p <= max_part_; ++p) {
        part_rates[static_cast<size_t>(p)] = logFailRate(p);
        part_lats[static_cast<size_t>(p)] = timing_.shiftCycles(p);
    }

    for (int d = 1; d <= max_part_; ++d) {
        std::vector<SequencePlan> candidates;
        for (int p = 1; p <= d; ++p) {
            double part_rate = part_rates[static_cast<size_t>(p)];
            Cycles part_lat = part_lats[static_cast<size_t>(p)];
            for (const auto &prev : fronts_[static_cast<size_t>(d - p)]) {
                // Keep parts descending to avoid duplicate partitions.
                if (!prev.parts.empty() && prev.parts.back() < p)
                    continue;
                SequencePlan plan;
                plan.parts = prev.parts;
                plan.parts.push_back(p);
                plan.log_fail_rate =
                    logSumExp(prev.log_fail_rate, part_rate);
                plan.latency = prev.latency + part_lat;
                candidates.push_back(std::move(plan));
            }
        }
        // Pareto-prune: sort by latency, keep strictly improving rate.
        std::sort(candidates.begin(), candidates.end(),
                  [](const SequencePlan &a, const SequencePlan &b) {
                      if (a.latency != b.latency)
                          return a.latency < b.latency;
                      return a.log_fail_rate < b.log_fail_rate;
                  });
        std::vector<SequencePlan> front;
        double best_rate = std::numeric_limits<double>::infinity();
        for (auto &cand : candidates) {
            if (cand.log_fail_rate < best_rate) {
                best_rate = cand.log_fail_rate;
                cand.min_interval =
                    minSafeInterval(cand.log_fail_rate,
                                    mttf_target_s_,
                                    timing_.clockHz());
                front.push_back(std::move(cand));
            }
        }
        fronts_[static_cast<size_t>(d)] = std::move(front);
    }
}

const SequencePlan &
ShiftPlanner::planForIntensity(int distance,
                               double ops_per_second) const
{
    if (ops_per_second <= 0.0)
        return paretoFront(distance).front();
    double interval_s = 1.0 / ops_per_second;
    double cycles = interval_s * timing_.clockHz();
    Cycles interval = cycles >= 1e18
                          ? static_cast<Cycles>(1e18)
                          : static_cast<Cycles>(cycles);
    return planFor(distance, interval);
}

int
ShiftPlanner::safeDistance(double ops_per_second) const
{
    if (ops_per_second <= 0.0)
        return max_part_;
    // A 2% tolerance keeps boundary rows stable: the paper's
    // Table 3(a) rounds the intensity for each safe distance to
    // three significant digits, so querying with exactly that
    // rounded intensity must still admit the row's distance.
    double log_budget = std::log(1.02 / (mttf_target_s_ *
                                         ops_per_second));
    int best = 1;
    for (int d = 1; d <= max_part_; ++d) {
        if (logFailRate(d) <= log_budget)
            best = d;
    }
    return best;
}

} // namespace rtm
