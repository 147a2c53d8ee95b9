/**
 * @file
 * Fault scenarios: non-i.i.d. position-error regimes.
 *
 * A plain PositionErrorModel draws every shift outcome independently,
 * which is the regime the paper's rates were measured in — but it is
 * not the regime a controller has to survive. Related work motivates
 * harder ones: shift behaviour is dominated by access-pattern
 * correlation (ShiftsReduce), and burst/multi-step position errors
 * occur in practice (k-deletion codes). A FaultScenario is a base
 * model's table (and script, if any) plus a regime that bends its
 * outcome stream into the one its ScenarioSpec names:
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
 * log-probabilities of the base table — the adversarial part is
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
 * each (device/error_model.hh), and one case in each of
 * PositionErrorModel::setRegime(), which checks the spec and builds
 * any scaled table, and PositionErrorModel::sample(), both in
 * device/error_model.cc.
 */

#ifndef RTM_DEVICE_FAULT_SCENARIO_HH
#define RTM_DEVICE_FAULT_SCENARIO_HH

#include <memory>
#include <vector>

#include "device/error_model.hh"

namespace rtm
{

/**
 * A PositionErrorModel whose sampled outcomes follow the regime of a
 * ScenarioSpec, with ground-truth injection accounting.
 */
class FaultScenario : public PositionErrorModel
{
  public:
    /** Shares `base`'s table and copies its script (from the next
     *  unplayed outcome); `base` must carry no regime of its own. */
    FaultScenario(const ScenarioSpec &spec,
                  const std::shared_ptr<const PositionErrorModel> &base);

    /** Ground-truth injections so far. */
    const InjectionLedger &ledger() const { return regime_->ledger; }
};

/** Build a scenario instance over `base` from a spec. */
std::unique_ptr<FaultScenario>
makeScenario(const ScenarioSpec &spec,
             std::shared_ptr<const PositionErrorModel> base);

/** The standard campaign catalogue (one spec per regime). */
std::vector<ScenarioSpec> standardScenarios();

} // namespace rtm

#endif // RTM_DEVICE_FAULT_SCENARIO_HH
