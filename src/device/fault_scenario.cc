#include "fault_scenario.hh"

#include <cmath>

#include "util/logging.hh"

namespace rtm
{

double
skewFactorFor(uint64_t stripe_id, double sigma)
{
    // One deterministic Gaussian per stripe id: the id seeds a
    // private stream, so the factor is stable across runs and
    // independent of any other sampling.
    Rng rng(0x5eedc0de ^ (stripe_id * 0x9e3779b97f4a7c15ULL));
    return std::exp(sigma * rng.gaussian());
}

FaultScenario::FaultScenario(
    const ScenarioSpec &spec,
    std::shared_ptr<const PositionErrorModel> base)
    : spec_(spec), base_(std::move(base)),
      scaled_base_(dynamic_cast<const ScaledErrorModel *>(base_.get()))
{
    if (!base_)
        rtm_fatal("fault scenario needs a base error model");
    switch (spec_.kind) {
      case ScenarioKind::Iid:
      case ScenarioKind::StuckStripe:
        break;
      case ScenarioKind::Burst:
        if (spec_.burst_period == 0 ||
            spec_.burst_len > spec_.burst_period)
            rtm_fatal("burst scenario needs 0 < burst_len <= period");
        scaled_.emplace(base_, spec_.burst_multiplier);
        break;
      case ScenarioKind::Droop:
        if (spec_.droop_period == 0 ||
            spec_.droop_len > spec_.droop_period)
            rtm_fatal("droop scenario needs 0 < droop_len <= period");
        if (spec_.droop_undershoot_prob < 0.0 ||
            spec_.droop_undershoot_prob > 1.0)
            rtm_fatal("droop undershoot probability must be in [0,1]");
        break;
      case ScenarioKind::Skew:
        scaled_.emplace(base_,
                        skewFactorFor(spec_.stripe_id, spec_.skew_sigma));
        break;
    }
}

double
FaultScenario::logProbStep(int distance, int step_error) const
{
    return base_->logProbStep(distance, step_error);
}

double
FaultScenario::logProbStopInMiddle(int distance,
                                   int interval_floor) const
{
    return base_->logProbStopInMiddle(distance, interval_floor);
}

double
FaultScenario::logProbStepRaw(int distance, int step_error) const
{
    return base_->logProbStepRaw(distance, step_error);
}

int
FaultScenario::maxStepError() const
{
    return base_->maxStepError();
}

ShiftOutcome
FaultScenario::record(ShiftOutcome out) const
{
    ++ledger_.samples;
    if (!out.ok()) {
        ++ledger_.injected;
        if (out.stop_in_middle)
            ++ledger_.stop_in_middle;
        else
            ++ledger_.step_errors;
    }
    return out;
}

ShiftOutcome
FaultScenario::sample(Rng &rng, int distance, bool sts_enabled) const
{
    switch (spec_.kind) {
      case ScenarioKind::Iid:
        break;
      case ScenarioKind::Burst: {
        const bool burst = shifts_ < spec_.burst_len;
        if (++shifts_ == spec_.burst_period)
            shifts_ = 0;
        if (burst)
            return record(scaled_->sample(rng, distance, sts_enabled));
        break;
      }
      case ScenarioKind::StuckStripe: {
        const bool pinned =
            shifts_ >= spec_.stuck_after &&
            shifts_ < spec_.stuck_after + spec_.stuck_len;
        ++shifts_;
        if (pinned) {
            // The dead notch eats exactly one step of every drive: a
            // 1-step request does not move at all, longer requests
            // land one short. Deterministic — no base-model draw.
            ShiftOutcome out;
            out.step_error = -1;
            return record(out);
        }
        break;
      }
      case ScenarioKind::Droop: {
        const bool droop = shifts_ < spec_.droop_len;
        if (++shifts_ == spec_.droop_period)
            shifts_ = 0;
        // Draw the droop coin before the base sample so the base
        // stream stays aligned with the i.i.d. regime outside droop
        // windows.
        if (droop && rng.bernoulli(spec_.droop_undershoot_prob)) {
            ShiftOutcome out;
            out.step_error = -1;
            // Without the stage-2 pulse, the sagging drive strands
            // the walls in the flat region short of the target.
            out.stop_in_middle = !sts_enabled;
            return record(out);
        }
        break;
      }
      case ScenarioKind::Skew:
        return record(scaled_->sample(rng, distance, sts_enabled));
    }
    return record(sampleBase(rng, distance, sts_enabled));
}

std::unique_ptr<FaultScenario>
makeScenario(const ScenarioSpec &spec,
             std::shared_ptr<const PositionErrorModel> base)
{
    return std::make_unique<FaultScenario>(spec, std::move(base));
}

std::vector<ScenarioSpec>
standardScenarios()
{
    std::vector<ScenarioSpec> specs;
    for (const auto &[kind, token] : enumTokens(ScenarioKind{})) {
        ScenarioSpec &spec = specs.emplace_back();
        spec.kind = kind;
        spec.name = token;
    }
    return specs;
}

} // namespace rtm
