/**
 * @file
 * Position-error models for shift operations.
 *
 * A shift of N steps can end in one of three ways (paper Sec. 3.1):
 *  - success: every wall pinned in its target notch;
 *  - out-of-step (+/-k): walls pinned, but k pitches past/short of the
 *    target;
 *  - stop-in-middle: walls left in a flat region, reads are undefined.
 *
 * A PositionErrorModel is one value: an immutable probability table,
 * shared between copies, plus an optional script of outcomes and an
 * optional fault regime (device/fault_scenario.hh) that shape what
 * sample() returns. For every shift distance 1..kMaxShiftDistance the
 * table stores:
 *  - log P(+/-k) after STS and before it, for |k| <= maxStepError();
 *  - log P(stop-in-middle between k and k + 1) before STS;
 *  - log P(success) and log P(|k| >= m), summed from the post-STS
 *    values;
 *  - the cumulative outcome lists sample() walks, STS on and off.
 *
 * Builders fill the per-outcome values once and the table derives the
 * rest: PaperCalibratedErrorModel from the paper's published Table 2
 * rates (power-law extrapolation beyond 7 steps), FittedErrorModel
 * from its closed forms. Scaling is a transform of the stored values.
 * A query or a sample beyond the table panics.
 */

#ifndef RTM_DEVICE_ERROR_MODEL_HH
#define RTM_DEVICE_ERROR_MODEL_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "device/organisation.hh"
#include "util/fields.hh"
#include "util/rng.hh"

namespace rtm
{

/** Longest shift an error table holds: the last step of the longest
 *  segment any program plans for. */
constexpr int kMaxShiftDistance = kMaxSegLen - 1;

/** Result of one attempted shift operation. */
struct ShiftOutcome
{
    /** Signed out-of-step error: walls ended this many steps beyond
     *  (+) or short of (-) the requested distance. */
    int step_error = 0;

    /** True if walls stopped in a flat region (reads undefined).
     *  When set, step_error holds the floor of the resting interval:
     *  the walls sit between step_error and step_error + 1 pitches of
     *  over/under-shift. */
    bool stop_in_middle = false;

    /** True iff the shift landed exactly where requested. */
    bool ok() const { return step_error == 0 && !stop_in_middle; }
};

/** Fault regimes a scenario can bend the outcome stream into. */
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

/** Deterministic log-normal skew factor for a stripe id. */
double skewFactorFor(uint64_t stripe_id, double sigma);

/** Ground-truth count of what a scenario injected. */
struct InjectionLedger
{
    uint64_t samples = 0;        //!< shift outcomes drawn
    uint64_t injected = 0;       //!< non-ok outcomes returned
    uint64_t step_errors = 0;    //!< pinned-in-wrong-notch outcomes
    uint64_t stop_in_middle = 0; //!< flat-region outcomes
};

/**
 * Probability model for position errors of a single stripe shift of a
 * given distance, as a table (see the file comment).
 *
 * Probabilities are natural logs; impossible outcomes are -infinity.
 * "after STS" refers to the two-stage sub-threshold shift of Sec. 4.1
 * which converts stop-in-middle outcomes into out-of-step ones.
 */
class PositionErrorModel
{
  public:
    /**
     * Writes one distance's per-outcome log-probabilities, K being the
     * model's maxStepError(): step[2(m-1)] and step[2(m-1)+1] are
     * +m and -m after STS, raw the same before STS, and middle[f + K]
     * the stop-in-middle between over-shift f and f + 1, f in [-K, K).
     */
    using RowFill = std::function<void(int distance, double *step,
                                       double *raw, double *middle)>;

    /** Tabulate `fill` at every distance 1..kMaxShiftDistance for
     *  outcomes up to |k| <= max_step_error. */
    PositionErrorModel(int max_step_error, const RowFill &fill);

    /** Log-probability that an N-step shift with STS ends with signed
     *  out-of-step error k (0 < |k| <= maxStepError()). */
    double logProbStep(int distance, int step_error) const;

    /** Log-probability that an N-step shift *without* STS ends pinned
     *  in the wrong notch with signed error k. */
    double logProbStepRaw(int distance, int step_error) const;

    /** Log-probability that an N-step shift *without* STS stops in the
     *  flat region between over-shift k and k + 1. */
    double logProbStopInMiddle(int distance, int interval_floor) const;

    /** Log-probability that an N-step shift (with STS) is correct. */
    double logProbSuccess(int distance) const;

    /** Log-probability of any out-of-step error of magnitude >= m for
     *  an N-step shift with STS (sum over both signs). */
    double logProbAtLeast(int distance, int magnitude) const;

    /** Largest |k| the table holds. */
    int maxStepError() const;

    /**
     * Draw one outcome for an N-step shift: the next scripted
     * outcome, or one rng.uniform() walked against the table's
     * cumulative outcome list, bent by the fault regime if there is
     * one (which then advances and counts the draw).
     */
    ShiftOutcome sample(Rng &rng, int distance, bool sts_enabled) const;

  protected:
    struct Table;

    /** A fault regime and its state (device/fault_scenario.hh). */
    struct Regime
    {
        ScenarioSpec spec;
        /** Burst and skew: the table at the regime's multiplier. */
        std::shared_ptr<const Table> scaled;
        /** Shifts sampled so far; burst and droop wrap it at their
         *  period, so it is the phase within the period. */
        uint64_t shifts = 0;
        InjectionLedger ledger;
    };

    explicit PositionErrorModel(std::shared_ptr<const Table> table)
        : table_(std::move(table))
    {
    }

    /** *base; a fatal error naming `who` when base is null. */
    static const PositionErrorModel &
    nonNullBase(const std::shared_ptr<const PositionErrorModel> &base,
                const char *who);

    /** Bend sample() into the regime `spec` names; fatal on a spec
     *  the regime cannot run, or when a regime is already set. */
    void setRegime(const ScenarioSpec &spec);

    /** `model`'s table with every outcome probability multiplied by
     *  `factor` and capped at 1/2; the sums and outcome lists are
     *  re-derived from the scaled values. */
    static std::shared_ptr<const Table>
    scaledTable(const PositionErrorModel &model, double factor);

    std::shared_ptr<const Table> table_;
    /** Outcomes played before the table is consulted; an empty
     *  script is the error-free model. */
    std::optional<std::vector<ShiftOutcome>> script_;
    mutable size_t script_pos_ = 0;
    mutable std::optional<Regime> regime_;
};

/**
 * Paper-calibrated model: Table 2 rates for distances 1..7, power-law
 * extrapolation beyond, 80 % of each |k| rate on +k (the paper notes
 * + errors dominate because the drive is above threshold) and 85 % of
 * the pre-STS mass resting in the flat region. The table is built once
 * per process and shared by every instance.
 */
class PaperCalibratedErrorModel : public PositionErrorModel
{
  public:
    PaperCalibratedErrorModel();

    /** Combined +/-k rate for an N-step shift (linear domain). */
    static double stepErrorRate(int distance, int magnitude);
};

/** Another model's table scaled by a constant factor (ablation
 *  benches and accelerated fault injection); no script, no regime. */
class ScaledErrorModel : public PositionErrorModel
{
  public:
    ScaledErrorModel(const std::shared_ptr<const PositionErrorModel> &base,
                     double factor);
};

/**
 * Deterministic scripted model: an all-impossible table that plays a
 * fixed list of outcomes (useful for unit-testing correction logic
 * with exact scenarios). With an empty script it is the error-free
 * model. Scripted outcomes consume no random draws.
 */
class ScriptedErrorModel : public PositionErrorModel
{
  public:
    /** Outcomes are consumed in order; afterwards shifts succeed. */
    explicit ScriptedErrorModel(std::vector<ShiftOutcome> script = {});

    /** Outcomes not yet consumed. */
    size_t remaining() const { return script_->size() - script_pos_; }
};

} // namespace rtm

#endif // RTM_DEVICE_ERROR_MODEL_HH
