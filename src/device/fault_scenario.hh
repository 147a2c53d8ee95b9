/**
 * @file
 * Composable fault scenarios: non-i.i.d. position-error regimes.
 *
 * The base PositionErrorModel draws every shift outcome independently,
 * which is the regime the paper's rates were measured in — but it is
 * not the regime a controller has to survive. Related work motivates
 * harder ones: shift behaviour is dominated by access-pattern
 * correlation (ShiftsReduce), and burst/multi-step position errors
 * occur in practice (k-deletion codes). A FaultScenario wraps any
 * error model and bends its outcome stream into such a regime:
 *
 *  - BurstScenario: correlated error epochs — every `period` shifts,
 *    `burst_len` consecutive shifts see their error rates multiplied;
 *  - StuckStripeScenario: a wall pinned at a dead notch — every shift
 *    in the stuck window under-shoots by exactly one step until the
 *    wall is freed (window expires);
 *  - DroopScenario: drive-current droop — periodic windows in which
 *    shifts under-shoot with a fixed probability on top of the base
 *    rates;
 *  - SkewScenario: per-stripe process variation — a deterministic
 *    per-stripe rate multiplier derived from the stripe id.
 *
 * Scenarios compose by wrapping one another (the base may itself be a
 * scenario). Planner/reliability code keeps seeing the *nominal*
 * log-probabilities of the innermost model — the adversarial part is
 * only in the sampled reality, which is exactly the robustness test.
 *
 * Scenario state advances once per sampled shift, so a given
 * (scenario, seed, access stream) is bit-reproducible under the
 * sharded RNG scheme of util/parallel.hh. Scenarios are therefore
 * NOT shareable between concurrently-driven stripes: clone() one
 * instance per cell/stripe instead.
 */

#ifndef RTM_DEVICE_FAULT_SCENARIO_HH
#define RTM_DEVICE_FAULT_SCENARIO_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "device/error_model.hh"
#include "util/fields.hh"

namespace rtm
{

/** Ground-truth count of what a scenario injected. */
struct InjectionLedger
{
    uint64_t samples = 0;        //!< shift outcomes drawn
    uint64_t injected = 0;       //!< non-ok outcomes returned
    uint64_t step_errors = 0;    //!< pinned-in-wrong-notch outcomes
    uint64_t stop_in_middle = 0; //!< flat-region outcomes

    /** Per-field sum (campaign aggregation). */
    void merge(const InjectionLedger &other);
};

/**
 * Interface: a PositionErrorModel whose sampled outcomes follow a
 * non-i.i.d. regime, with ground-truth injection accounting.
 */
class FaultScenario : public PositionErrorModel
{
  public:
    explicit FaultScenario(
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

    /**
     * Draw one outcome under the regime (advancing its state) and
     * count it into the ledger. Each regime overrides this directly,
     * so a shift makes one virtual call into its scenario; the
     * regime reaches a ScaledErrorModel base without another.
     */
    ShiftOutcome sample(Rng &rng, int distance,
                        bool sts_enabled) const override = 0;

    /**
     * Fresh copy of this scenario at the start of its timeline (shift
     * counters and ledger reset; nested scenarios deep-cloned).
     */
    virtual std::unique_ptr<FaultScenario> clone() const = 0;

    /** Short regime name for reports. */
    virtual const char *name() const = 0;

    /** Ground-truth injections so far. */
    const InjectionLedger &ledger() const { return ledger_; }

    /** The wrapped model. */
    const PositionErrorModel *base() const { return base_.get(); }

  protected:
    /**
     * Base pointer for a clone: nested scenarios are deep-cloned so
     * clones never share mutable state; plain models are shared.
     */
    std::shared_ptr<const PositionErrorModel> cloneBase() const;

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
    ShiftOutcome record(ShiftOutcome out) const
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

    std::shared_ptr<const PositionErrorModel> base_;

  private:
    /** base_ as a ScaledErrorModel, or null. */
    const ScaledErrorModel *scaled_base_;
    mutable InjectionLedger ledger_;
};

/** Control scenario: the base model's i.i.d. regime, with a ledger. */
class IidScenario final : public FaultScenario
{
  public:
    explicit IidScenario(
        std::shared_ptr<const PositionErrorModel> base);

    ShiftOutcome sample(Rng &rng, int distance,
                        bool sts_enabled) const override;
    std::unique_ptr<FaultScenario> clone() const override;
    const char *name() const override { return "iid"; }
};

/**
 * Correlated burst epochs: every `period` shifts, the first
 * `burst_len` of them sample from rates scaled by `multiplier`.
 */
class BurstScenario final : public FaultScenario
{
  public:
    BurstScenario(std::shared_ptr<const PositionErrorModel> base,
                  uint64_t period, uint64_t burst_len,
                  double multiplier);

    ShiftOutcome sample(Rng &rng, int distance,
                        bool sts_enabled) const override;
    std::unique_ptr<FaultScenario> clone() const override;
    const char *name() const override { return "burst"; }

    /** True if the next sampled shift falls in a burst epoch. */
    bool inBurst() const;

  private:
    uint64_t period_;
    uint64_t burst_len_;
    double multiplier_;
    ScaledErrorModel boosted_;
    /** Shifts sampled so far, modulo period_. */
    mutable uint64_t phase_ = 0;
};

/**
 * Stuck stripe: shifts in [stuck_after, stuck_after + stuck_len)
 * under-shoot by exactly one step — a wall pinned at a dead notch
 * that no normal drive frees until the window expires (re-drive).
 */
class StuckStripeScenario final : public FaultScenario
{
  public:
    StuckStripeScenario(
        std::shared_ptr<const PositionErrorModel> base,
        uint64_t stuck_after, uint64_t stuck_len);

    ShiftOutcome sample(Rng &rng, int distance,
                        bool sts_enabled) const override;
    std::unique_ptr<FaultScenario> clone() const override;
    const char *name() const override { return "stuck-stripe"; }

    /** True if the next sampled shift falls in the stuck window. */
    bool stuck() const;

  private:
    uint64_t stuck_after_;
    uint64_t stuck_len_;
    mutable uint64_t shift_count_ = 0;
};

/**
 * Drive-current droop: every `period` shifts, the first `droop_len`
 * additionally under-shoot one step with probability
 * `undershoot_prob` (sagging drive fails to complete the last step).
 */
class DroopScenario final : public FaultScenario
{
  public:
    DroopScenario(std::shared_ptr<const PositionErrorModel> base,
                  uint64_t period, uint64_t droop_len,
                  double undershoot_prob);

    ShiftOutcome sample(Rng &rng, int distance,
                        bool sts_enabled) const override;
    std::unique_ptr<FaultScenario> clone() const override;
    const char *name() const override { return "droop"; }

  private:
    uint64_t period_;
    uint64_t droop_len_;
    double undershoot_prob_;
    /** Shifts sampled so far, modulo period_. */
    mutable uint64_t phase_ = 0;
};

/**
 * Per-stripe variation skew: a fixed rate multiplier drawn
 * deterministically from the stripe id (log-normal around 1).
 */
class SkewScenario final : public FaultScenario
{
  public:
    SkewScenario(std::shared_ptr<const PositionErrorModel> base,
                 uint64_t stripe_id, double sigma);

    ShiftOutcome sample(Rng &rng, int distance,
                        bool sts_enabled) const override;
    std::unique_ptr<FaultScenario> clone() const override;
    const char *name() const override { return "skew"; }

    /** The resolved multiplier for this stripe. */
    double factor() const { return factor_; }

  private:
    uint64_t stripe_id_;
    double sigma_;
    double factor_;
    ScaledErrorModel skewed_;
};

/** Deterministic log-normal skew factor for a stripe id. */
double skewFactorFor(uint64_t stripe_id, double sigma);

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

    // Skew parameters.
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
    v("skew_sigma", s.skew_sigma...);
}

/** Build a scenario instance over `base` from a spec. */
std::unique_ptr<FaultScenario>
makeScenario(const ScenarioSpec &spec,
             std::shared_ptr<const PositionErrorModel> base);

/** The standard campaign catalogue (one spec per regime). */
std::vector<ScenarioSpec> standardScenarios();

} // namespace rtm

#endif // RTM_DEVICE_FAULT_SCENARIO_HH
