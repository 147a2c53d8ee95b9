/**
 * @file
 * Fault scenarios: non-i.i.d. position-error regimes.
 *
 * The base PositionErrorModel draws every shift outcome independently,
 * which is the regime the paper's rates were measured in — but it is
 * not the regime a controller has to survive. Related work motivates
 * harder ones: shift behaviour is dominated by access-pattern
 * correlation (ShiftsReduce), and burst/multi-step position errors
 * occur in practice (k-deletion codes). A FaultScenario wraps any
 * error model and bends its outcome stream into the regime its
 * ScenarioSpec names:
 *
 *  - iid: the base model's own regime, with an injection ledger;
 *  - burst: correlated error epochs — every `burst_period` shifts,
 *    `burst_len` consecutive shifts see their error rates multiplied;
 *  - stuck-stripe: a wall pinned at a dead notch — every shift in
 *    the stuck window under-shoots by exactly one step until the
 *    wall is freed (window expires);
 *  - droop: drive-current droop — periodic windows in which shifts
 *    under-shoot with a fixed probability on top of the base rates;
 *  - skew: per-stripe process variation — a deterministic per-stripe
 *    rate multiplier derived from the stripe id.
 *
 * Planner/reliability code keeps seeing the *nominal*
 * log-probabilities of the base model — the adversarial part is
 * only in the sampled reality, which is exactly the robustness test.
 *
 * Scenario state advances once per sampled shift, so a given
 * (scenario, seed, access stream) is bit-reproducible under the
 * sharded RNG scheme of util/parallel.hh. Scenarios are therefore
 * NOT shareable between concurrently-driven stripes: build one
 * instance per cell/stripe from the spec instead.
 *
 * Adding a regime takes one ScenarioKind row (with its token), its
 * parameters as ScenarioSpec fields with one forEachField entry
 * each, and one case in FaultScenario::sample().
 */

#ifndef RTM_DEVICE_FAULT_SCENARIO_HH
#define RTM_DEVICE_FAULT_SCENARIO_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "device/error_model.hh"
#include "util/fields.hh"

namespace rtm
{

/** Scenario kinds a campaign can instantiate from a spec. */
enum class ScenarioKind
{
    Iid,
    Burst,
    StuckStripe,
    Droop,
    Skew
};

/** Spec tokens for the scenario kinds. */
constexpr auto
enumTokens(ScenarioKind)
{
    return std::to_array<EnumToken<ScenarioKind>>({
        {ScenarioKind::Iid, "iid"},
        {ScenarioKind::Burst, "burst"},
        {ScenarioKind::StuckStripe, "stuck-stripe"},
        {ScenarioKind::Droop, "droop"},
        {ScenarioKind::Skew, "skew"},
    });
}

/** Declarative scenario description (campaign configuration). */
struct ScenarioSpec
{
    ScenarioKind kind = ScenarioKind::Iid;
    std::string name = "iid";

    // Burst parameters.
    uint64_t burst_period = 64;
    uint64_t burst_len = 8;
    double burst_multiplier = 50.0;

    // Stuck-stripe parameters.
    uint64_t stuck_after = 200;
    uint64_t stuck_len = 12;

    // Droop parameters.
    uint64_t droop_period = 128;
    uint64_t droop_len = 32;
    double droop_undershoot_prob = 0.02;

    // Skew: sigma <= 82 keeps exp(sigma * z) finite (Gaussian |z| <= 8.57).
    uint64_t stripe_id = 7;
    double skew_sigma = 0.6;

    bool operator==(const ScenarioSpec &) const = default;
};

/** Spec keys of a scenario (util/fields.hh). */
template <class V, FieldsOf<ScenarioSpec>... S>
void
forEachField(V &&v, S &...s)
{
    v("kind", s.kind...);
    v("name", s.name...);
    v("burst_period", InRange{s.burst_period, 1}...);
    v("burst_len", s.burst_len...);
    v("burst_multiplier", InRange{s.burst_multiplier, Exclusive{0.0}}...);
    v("stuck_after", s.stuck_after...);
    v("stuck_len", s.stuck_len...);
    v("droop_period", InRange{s.droop_period, 1}...);
    v("droop_len", s.droop_len...);
    v("droop_undershoot_prob",
      InRange{s.droop_undershoot_prob, 0.0, 1.0}...);
    v("stripe_id", s.stripe_id...);
    v("skew_sigma", InRange{s.skew_sigma, 0.0, 82.0}...);
}

/** Ground-truth count of what a scenario injected. */
struct InjectionLedger
{
    uint64_t samples = 0;        //!< shift outcomes drawn
    uint64_t injected = 0;       //!< non-ok outcomes returned
    uint64_t step_errors = 0;    //!< pinned-in-wrong-notch outcomes
    uint64_t stop_in_middle = 0; //!< flat-region outcomes
};

/** Deterministic log-normal skew factor for a stripe id. */
double skewFactorFor(uint64_t stripe_id, double sigma);

/**
 * A PositionErrorModel whose sampled outcomes follow the regime of a
 * ScenarioSpec, with ground-truth injection accounting.
 */
class FaultScenario final : public PositionErrorModel
{
  public:
    FaultScenario(const ScenarioSpec &spec,
                  std::shared_ptr<const PositionErrorModel> base);

    // Probability queries delegate to the wrapped model: planners and
    // reliability math budget against nominal rates while the sampled
    // reality misbehaves.
    double logProbStep(int distance, int step_error) const override;
    double logProbStopInMiddle(int distance,
                               int interval_floor) const override;
    double logProbStepRaw(int distance,
                          int step_error) const override;
    int maxStepError() const override;

    /** Draw one outcome under the regime (advancing its state) and
     *  count it into the ledger. */
    ShiftOutcome sample(Rng &rng, int distance,
                        bool sts_enabled) const override;

    /** Ground-truth injections so far. */
    const InjectionLedger &ledger() const { return ledger_; }

  private:
    /** One draw from the wrapped model: a direct call when it is a
     *  ScaledErrorModel (every drill's base), virtual otherwise. */
    ShiftOutcome sampleBase(Rng &rng, int distance,
                            bool sts_enabled) const
    {
        return scaled_base_
                   ? scaled_base_->sample(rng, distance, sts_enabled)
                   : base_->sample(rng, distance, sts_enabled);
    }

    /** Count `out` into the ledger and return it. */
    ShiftOutcome record(ShiftOutcome out) const;

    ScenarioSpec spec_;
    std::shared_ptr<const PositionErrorModel> base_;
    /** base_ as a ScaledErrorModel, or null. */
    const ScaledErrorModel *scaled_base_;
    /** Burst and skew: the base at the regime's rate multiplier. */
    std::optional<ScaledErrorModel> scaled_;
    /** Shifts sampled so far; burst and droop wrap it at their
     *  period, so it is the phase within the period. */
    mutable uint64_t shifts_ = 0;
    mutable InjectionLedger ledger_;
};

/** Build a scenario instance over `base` from a spec. */
std::unique_ptr<FaultScenario>
makeScenario(const ScenarioSpec &spec,
             std::shared_ptr<const PositionErrorModel> base);

/** The standard campaign catalogue (one spec per regime). */
std::vector<ScenarioSpec> standardScenarios();

} // namespace rtm

#endif // RTM_DEVICE_FAULT_SCENARIO_HH
