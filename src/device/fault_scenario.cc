#include "fault_scenario.hh"

#include <cmath>

#include "util/logging.hh"

namespace rtm
{

void
InjectionLedger::merge(const InjectionLedger &other)
{
    samples += other.samples;
    injected += other.injected;
    step_errors += other.step_errors;
    stop_in_middle += other.stop_in_middle;
}

FaultScenario::FaultScenario(
    std::shared_ptr<const PositionErrorModel> base)
    : base_(std::move(base)),
      scaled_base_(dynamic_cast<const ScaledErrorModel *>(base_.get()))
{
    if (!base_)
        rtm_fatal("fault scenario needs a base error model");
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

std::shared_ptr<const PositionErrorModel>
FaultScenario::cloneBase() const
{
    if (auto *nested = dynamic_cast<const FaultScenario *>(
            base_.get())) {
        return std::shared_ptr<const PositionErrorModel>(
            nested->clone());
    }
    // Plain models are stateless under sample() and safe to share.
    return base_;
}

IidScenario::IidScenario(
    std::shared_ptr<const PositionErrorModel> base)
    : FaultScenario(std::move(base))
{
}

ShiftOutcome
IidScenario::sample(Rng &rng, int distance,
                    bool sts_enabled) const
{
    return record(sampleBase(rng, distance, sts_enabled));
}

std::unique_ptr<FaultScenario>
IidScenario::clone() const
{
    return std::make_unique<IidScenario>(cloneBase());
}

BurstScenario::BurstScenario(
    std::shared_ptr<const PositionErrorModel> base, uint64_t period,
    uint64_t burst_len, double multiplier)
    : FaultScenario(std::move(base)), period_(period),
      burst_len_(burst_len), multiplier_(multiplier),
      boosted_(base_, multiplier)
{
    if (period_ == 0 || burst_len_ > period_)
        rtm_fatal("burst scenario needs 0 < burst_len <= period");
}

bool
BurstScenario::inBurst() const
{
    return phase_ < burst_len_;
}

ShiftOutcome
BurstScenario::sample(Rng &rng, int distance,
                      bool sts_enabled) const
{
    bool burst = inBurst();
    if (++phase_ == period_)
        phase_ = 0;
    return record(burst ? boosted_.sample(rng, distance, sts_enabled)
                        : sampleBase(rng, distance, sts_enabled));
}

std::unique_ptr<FaultScenario>
BurstScenario::clone() const
{
    return std::make_unique<BurstScenario>(cloneBase(), period_,
                                           burst_len_, multiplier_);
}

StuckStripeScenario::StuckStripeScenario(
    std::shared_ptr<const PositionErrorModel> base,
    uint64_t stuck_after, uint64_t stuck_len)
    : FaultScenario(std::move(base)), stuck_after_(stuck_after),
      stuck_len_(stuck_len)
{
}

bool
StuckStripeScenario::stuck() const
{
    return shift_count_ >= stuck_after_ &&
           shift_count_ < stuck_after_ + stuck_len_;
}

ShiftOutcome
StuckStripeScenario::sample(Rng &rng, int distance,
                            bool sts_enabled) const
{
    bool pinned = stuck();
    ++shift_count_;
    if (pinned) {
        // The dead notch eats exactly one step of every drive: a
        // 1-step request does not move at all, longer requests land
        // one short. Deterministic — no base-model draw.
        ShiftOutcome out;
        out.step_error = -1;
        return record(out);
    }
    return record(sampleBase(rng, distance, sts_enabled));
}

std::unique_ptr<FaultScenario>
StuckStripeScenario::clone() const
{
    return std::make_unique<StuckStripeScenario>(
        cloneBase(), stuck_after_, stuck_len_);
}

DroopScenario::DroopScenario(
    std::shared_ptr<const PositionErrorModel> base, uint64_t period,
    uint64_t droop_len, double undershoot_prob)
    : FaultScenario(std::move(base)), period_(period),
      droop_len_(droop_len), undershoot_prob_(undershoot_prob)
{
    if (period_ == 0 || droop_len_ > period_)
        rtm_fatal("droop scenario needs 0 < droop_len <= period");
    if (undershoot_prob_ < 0.0 || undershoot_prob_ > 1.0)
        rtm_fatal("droop undershoot probability must be in [0,1]");
}

ShiftOutcome
DroopScenario::sample(Rng &rng, int distance,
                      bool sts_enabled) const
{
    bool droop = phase_ < droop_len_;
    if (++phase_ == period_)
        phase_ = 0;
    // Draw the droop coin before the base sample so the base stream
    // stays aligned with the i.i.d. regime outside droop windows.
    if (droop && rng.bernoulli(undershoot_prob_)) {
        ShiftOutcome out;
        out.step_error = -1;
        // Without the stage-2 pulse, the sagging drive strands the
        // walls in the flat region short of the target.
        out.stop_in_middle = !sts_enabled;
        return record(out);
    }
    return record(sampleBase(rng, distance, sts_enabled));
}

std::unique_ptr<FaultScenario>
DroopScenario::clone() const
{
    return std::make_unique<DroopScenario>(
        cloneBase(), period_, droop_len_, undershoot_prob_);
}

double
skewFactorFor(uint64_t stripe_id, double sigma)
{
    // One deterministic Gaussian per stripe id: the id seeds a
    // private stream, so the factor is stable across runs and
    // independent of any other sampling.
    Rng rng(0x5eedc0de ^ (stripe_id * 0x9e3779b97f4a7c15ULL));
    return std::exp(sigma * rng.gaussian());
}

SkewScenario::SkewScenario(
    std::shared_ptr<const PositionErrorModel> base,
    uint64_t stripe_id, double sigma)
    : FaultScenario(std::move(base)), stripe_id_(stripe_id),
      sigma_(sigma), factor_(skewFactorFor(stripe_id, sigma)),
      skewed_(base_, factor_)
{
}

ShiftOutcome
SkewScenario::sample(Rng &rng, int distance,
                     bool sts_enabled) const
{
    return record(skewed_.sample(rng, distance, sts_enabled));
}

std::unique_ptr<FaultScenario>
SkewScenario::clone() const
{
    return std::make_unique<SkewScenario>(cloneBase(), stripe_id_,
                                          sigma_);
}

std::unique_ptr<FaultScenario>
makeScenario(const ScenarioSpec &spec,
             std::shared_ptr<const PositionErrorModel> base)
{
    switch (spec.kind) {
      case ScenarioKind::Iid:
        return std::make_unique<IidScenario>(std::move(base));
      case ScenarioKind::Burst:
        return std::make_unique<BurstScenario>(
            std::move(base), spec.burst_period, spec.burst_len,
            spec.burst_multiplier);
      case ScenarioKind::StuckStripe:
        return std::make_unique<StuckStripeScenario>(
            std::move(base), spec.stuck_after, spec.stuck_len);
      case ScenarioKind::Droop:
        return std::make_unique<DroopScenario>(
            std::move(base), spec.droop_period, spec.droop_len,
            spec.droop_undershoot_prob);
      case ScenarioKind::Skew:
        return std::make_unique<SkewScenario>(
            std::move(base), spec.stripe_id, spec.skew_sigma);
    }
    rtm_panic("unknown scenario kind");
}

std::vector<ScenarioSpec>
standardScenarios()
{
    std::vector<ScenarioSpec> specs;
    ScenarioSpec iid;
    iid.kind = ScenarioKind::Iid;
    iid.name = "iid";
    specs.push_back(iid);

    ScenarioSpec burst;
    burst.kind = ScenarioKind::Burst;
    burst.name = "burst";
    specs.push_back(burst);

    ScenarioSpec stuck;
    stuck.kind = ScenarioKind::StuckStripe;
    stuck.name = "stuck-stripe";
    specs.push_back(stuck);

    ScenarioSpec droop;
    droop.kind = ScenarioKind::Droop;
    droop.name = "droop";
    specs.push_back(droop);

    ScenarioSpec skew;
    skew.kind = ScenarioKind::Skew;
    skew.name = "skew";
    specs.push_back(skew);
    return specs;
}

} // namespace rtm
