#include "error_model.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <span>

#include "util/logging.hh"
#include "util/prob.hh"

namespace rtm
{

namespace
{

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
// Scaling's per-outcome probability cap; equals std::log(0.5).
constexpr double kLogHalf = -std::numbers::ln2;

// Paper Table 2: combined +/-k out-of-step rates after STS, for shift
// distances 1..7 on the default 64-domain / 8-segment stripe.
constexpr double kTable2K1[7] = {
    4.55e-5, 9.95e-5, 2.07e-4, 3.76e-4, 5.94e-4, 8.43e-4, 1.10e-3,
};
constexpr double kTable2K2[7] = {
    1.37e-21, 1.19e-20, 5.59e-20, 1.80e-19, 4.47e-19, 9.96e-18,
    7.57e-15,
};
// Table 2 lists k >= 3 as "too small"; we budget it at 1e-7 of the
// k=2 rate so downstream log-space math never sees a hard zero.
constexpr double kK3Fraction = 1e-7;
constexpr int kPaperMaxStepError = 3;

// Power-law exponents fitted to Table 2 for distances beyond 7 steps
// (used by the sensitivity studies with long segments):
//   P1(N) = P1(1) * N^1.64     P2(N) = P2(1) * N^8.0
constexpr double kK1Exponent = 1.64;
constexpr double kK2Exponent = 8.0;

// Share of each |k| rate assigned to +k, and share of the raw per-|k|
// error mass that manifests as stop-in-middle before STS.
constexpr double kPlusFraction = 0.8;
constexpr double kMiddleFraction = 0.85;

// The scripted model's table: every outcome impossible, up to |k| = 8.
constexpr int kScriptedMaxStepError = 8;

double
extrapolate(const double *table, double exponent, int distance)
{
    double scale = std::pow(static_cast<double>(distance) / 7.0,
                            exponent);
    double v = table[6] * scale;
    return std::min(v, 0.5);
}

/** One entry of a cumulative outcome list: a uniform draw u selects
 *  the outcome of the first entry whose running sum exceeds it. */
struct CumulativeOutcome
{
    double acc = 0.0;     //!< running sum of outcome probabilities
    ShiftOutcome outcome; //!< outcome selected by this entry
};

} // anonymous namespace

/**
 * Row-major per-distance arrays, one row per distance
 * 1..kMaxShiftDistance, K = kmax:
 *  - step, raw: 2K per row, +1, -1, +2, -2, ...;
 *  - middle: 2K per row, floors -K..K-1;
 *  - at_least: K per row, magnitudes 1..K;
 *  - success: one per row;
 *  - outcomes[1] (STS): 2K entries per row, the step ladder;
 *    outcomes[0] (no STS): 4K, the raw ladder then the floors.
 */
struct PositionErrorModel::Table
{
    int kmax = 0;
    std::vector<double> step, raw, middle, at_least, success;
    std::vector<CumulativeOutcome> outcomes[2];

    /** Size the arrays for outcomes up to |k| <= k. */
    explicit Table(int k) : kmax(k)
    {
        if (kmax < 1)
            rtm_panic("error table needs maxStepError >= 1");
        const size_t rows = kMaxShiftDistance;
        const size_t width = 2 * static_cast<size_t>(kmax);
        step.resize(rows * width);
        raw.resize(rows * width);
        middle.resize(rows * width);
        at_least.resize(rows * static_cast<size_t>(kmax));
        success.resize(rows);
        outcomes[0].resize(rows * 2 * width);
        outcomes[1].resize(rows * width);
    }

    /** Row offset of `distance` in an array `width` wide. */
    static size_t row(int distance, size_t width)
    {
        if (distance < 1 || distance > kMaxShiftDistance)
            rtm_panic("shift distance %d outside the error table "
                      "[1, %d]",
                      distance, kMaxShiftDistance);
        return static_cast<size_t>(distance - 1) * width;
    }

    size_t width() const { return 2 * static_cast<size_t>(kmax); }

    /** Index of signed error k within a step/raw row. */
    size_t ladder(int step_error) const
    {
        const int mag = std::abs(step_error);
        if (mag < 1 || mag > kmax)
            rtm_panic("step error %d outside the error table's "
                      "+/-[1, %d]",
                      step_error, kmax);
        return 2 * static_cast<size_t>(mag - 1) + (step_error < 0);
    }

    /** Sum the at-least and success values and the outcome lists
     *  from step, raw and middle. */
    void derive()
    {
        const size_t w = width();
        for (int d = 1; d <= kMaxShiftDistance; ++d) {
            const double *s = &step[row(d, w)];
            // |k| >= m, accumulated from m outward, + before -.
            for (int m = 1; m <= kmax; ++m) {
                double acc = kNegInf;
                for (size_t i = 2 * static_cast<size_t>(m - 1); i < w;
                     ++i)
                    acc = logSumExp(acc, s[i]);
                at_least[row(d, static_cast<size_t>(kmax)) +
                         static_cast<size_t>(m - 1)] = acc;
            }
            // 1 - sum of all error outcomes.
            const double log_err =
                at_least[row(d, static_cast<size_t>(kmax))];
            success[static_cast<size_t>(d - 1)] =
                log_err == kNegInf ? 0.0
                : log_err >= 0.0   ? kNegInf
                                   : log1mExp(log_err);
            // The outcome lists: out-of-step outcomes from most likely
            // outward; without STS the pinned share excludes the
            // flat-region mass STS would fold in, and the flat-region
            // floors follow.
            for (int sts = 0; sts < 2; ++sts) {
                const double *ladder_lp = sts ? s : &raw[row(d, w)];
                CumulativeOutcome *out =
                    &outcomes[sts][row(d, sts ? w : 2 * w)];
                double acc = 0.0;
                for (size_t i = 0; i < w; ++i) {
                    acc += std::exp(ladder_lp[i]);
                    const int mag = static_cast<int>(i / 2) + 1;
                    *out++ = {acc, {i % 2 ? -mag : mag, false}};
                }
                if (sts)
                    continue;
                const double *mid = &middle[row(d, w)];
                for (size_t i = 0; i < w; ++i) {
                    acc += std::exp(mid[i]);
                    *out++ = {acc, {static_cast<int>(i) - kmax, true}};
                }
            }
        }
    }

    /** One uniform draw walked against the outcome list. */
    ShiftOutcome draw(Rng &rng, int distance, bool sts_enabled) const
    {
        const size_t len = sts_enabled ? width() : 2 * width();
        const std::span<const CumulativeOutcome> list(
            &outcomes[sts_enabled][row(distance, len)], len);
        const double u = rng.uniform();
        // The running sums never decrease, so a draw at or past the
        // last one (the common, successful shift) passes them all.
        if (u >= list.back().acc)
            return ShiftOutcome{};
        for (const CumulativeOutcome &e : list) {
            if (u < e.acc)
                return e.outcome;
        }
        return ShiftOutcome{};
    }
};

PositionErrorModel::PositionErrorModel(int max_step_error,
                                       const RowFill &fill)
{
    auto table = std::make_shared<Table>(max_step_error);
    const size_t w = table->width();
    for (int d = 1; d <= kMaxShiftDistance; ++d) {
        const size_t r = Table::row(d, w);
        fill(d, &table->step[r], &table->raw[r], &table->middle[r]);
    }
    table->derive();
    table_ = std::move(table);
}

double
PositionErrorModel::logProbStep(int distance, int step_error) const
{
    const Table &t = *table_;
    return t.step[Table::row(distance, t.width()) + t.ladder(step_error)];
}

double
PositionErrorModel::logProbStepRaw(int distance, int step_error) const
{
    const Table &t = *table_;
    return t.raw[Table::row(distance, t.width()) + t.ladder(step_error)];
}

double
PositionErrorModel::logProbStopInMiddle(int distance,
                                        int interval_floor) const
{
    const Table &t = *table_;
    if (interval_floor < -t.kmax || interval_floor >= t.kmax)
        rtm_panic("stop-in-middle floor %d outside the error table's "
                  "[-%d, %d)",
                  interval_floor, t.kmax, t.kmax);
    return t.middle[Table::row(distance, t.width()) +
                    static_cast<size_t>(interval_floor + t.kmax)];
}

double
PositionErrorModel::logProbSuccess(int distance) const
{
    return table_->success[Table::row(distance, 1)];
}

double
PositionErrorModel::logProbAtLeast(int distance, int magnitude) const
{
    const Table &t = *table_;
    const size_t r = Table::row(distance, static_cast<size_t>(t.kmax));
    if (magnitude > t.kmax)
        return kNegInf;
    return t.at_least[r + static_cast<size_t>(std::max(magnitude, 1) - 1)];
}

int
PositionErrorModel::maxStepError() const
{
    return table_->kmax;
}

std::shared_ptr<const PositionErrorModel::Table>
PositionErrorModel::scaledTable(const PositionErrorModel &model,
                                double factor)
{
    if (!(factor > 0.0) || std::isinf(factor))
        rtm_fatal("ScaledErrorModel: factor must be positive and finite");
    const double log_factor = std::log(factor);
    const Table &base = *model.table_;
    auto table = std::make_shared<Table>(base.kmax);
    auto scale = [log_factor](const std::vector<double> &from,
                              std::vector<double> *to) {
        for (size_t i = 0; i < from.size(); ++i)
            (*to)[i] = std::min(from[i] + log_factor, kLogHalf);
    };
    scale(base.step, &table->step);
    scale(base.raw, &table->raw);
    scale(base.middle, &table->middle);
    table->derive();
    return table;
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

void
PositionErrorModel::setRegime(const ScenarioSpec &spec)
{
    if (regime_)
        rtm_fatal("fault scenario: the base model already has a regime");
    Regime &r = regime_.emplace();
    r.spec = spec;
    switch (spec.kind) {
      case ScenarioKind::Iid:
      case ScenarioKind::StuckStripe:
        break;
      case ScenarioKind::Burst:
        if (spec.burst_period == 0 || spec.burst_len > spec.burst_period)
            rtm_fatal("burst scenario needs 0 < burst_len <= period");
        r.scaled = scaledTable(*this, spec.burst_multiplier);
        break;
      case ScenarioKind::Droop:
        if (spec.droop_period == 0 || spec.droop_len > spec.droop_period)
            rtm_fatal("droop scenario needs 0 < droop_len <= period");
        if (spec.droop_undershoot_prob < 0.0 ||
            spec.droop_undershoot_prob > 1.0)
            rtm_fatal("droop undershoot probability must be in [0,1]");
        break;
      case ScenarioKind::Skew:
        r.scaled = scaledTable(
            *this, skewFactorFor(spec.stripe_id, spec.skew_sigma));
        break;
    }
}

ShiftOutcome
PositionErrorModel::sample(Rng &rng, int distance, bool sts_enabled) const
{
    // The regime-free draw: the script while it lasts, else the table.
    auto base = [&] {
        if (script_) {
            if (script_pos_ < script_->size())
                return (*script_)[script_pos_++];
            return ShiftOutcome{};
        }
        return table_->draw(rng, distance, sts_enabled);
    };
    if (!regime_)
        return base();
    Regime &r = *regime_;
    // Count a regime's outcome into its ledger.
    auto count = [&r](ShiftOutcome out) {
        ++r.ledger.samples;
        if (!out.ok()) {
            ++r.ledger.injected;
            ++(out.stop_in_middle ? r.ledger.stop_in_middle
                                  : r.ledger.step_errors);
        }
        return out;
    };
    const ScenarioSpec &spec = r.spec;
    switch (spec.kind) {
      case ScenarioKind::Iid:
        break;
      case ScenarioKind::Burst: {
        const bool burst = r.shifts < spec.burst_len;
        if (++r.shifts == spec.burst_period)
            r.shifts = 0;
        if (burst)
            return count(r.scaled->draw(rng, distance, sts_enabled));
        break;
      }
      case ScenarioKind::StuckStripe: {
        const bool pinned = r.shifts >= spec.stuck_after &&
                            r.shifts < spec.stuck_after + spec.stuck_len;
        ++r.shifts;
        // The dead notch eats exactly one step of every drive: a
        // 1-step request does not move at all, longer requests land
        // one short. Deterministic: no draw.
        if (pinned)
            return count(ShiftOutcome{-1, false});
        break;
      }
      case ScenarioKind::Droop: {
        const bool droop = r.shifts < spec.droop_len;
        if (++r.shifts == spec.droop_period)
            r.shifts = 0;
        // The droop coin comes before the base draw so the base
        // stream stays aligned with the i.i.d. regime outside droop
        // windows. Without the stage-2 pulse, the sagging drive
        // strands the walls in the flat region short of the target.
        if (droop && rng.bernoulli(spec.droop_undershoot_prob))
            return count(ShiftOutcome{-1, !sts_enabled});
        break;
      }
      case ScenarioKind::Skew:
        return count(r.scaled->draw(rng, distance, sts_enabled));
    }
    return count(base());
}

double
PaperCalibratedErrorModel::stepErrorRate(int distance, int magnitude)
{
    if (distance <= 0)
        return 0.0;
    switch (magnitude) {
      case 1:
        return distance <= 7 ? kTable2K1[distance - 1]
                             : extrapolate(kTable2K1, kK1Exponent,
                                           distance);
      case 2:
        return distance <= 7 ? kTable2K2[distance - 1]
                             : extrapolate(kTable2K2, kK2Exponent,
                                           distance);
      case 3:
        return kK3Fraction * stepErrorRate(distance, 2);
      default:
        return 0.0;
    }
}

namespace
{

/** Table 2 split by sign, and before STS into the pinned share and
 *  the flat-region share. */
void
fillPaperRow(int distance, double *step, double *raw, double *middle)
{
    const int kmax = kPaperMaxStepError;
    double rate[kPaperMaxStepError + 1] = {}; // rate[|k|], |k| >= 1
    for (int mag = 1; mag <= kmax; ++mag)
        rate[mag] = PaperCalibratedErrorModel::stepErrorRate(distance, mag);
    const double log_plus = std::log(kPlusFraction);
    const double log_minus = std::log(1.0 - kPlusFraction);
    // Before STS only (1 - middle fraction) of each rate manifests as
    // a wall pinned in the wrong notch; the rest rests in the flat
    // region (stop-in-middle).
    const double log_pinned = std::log(1.0 - kMiddleFraction);
    for (int mag = 1; mag <= kmax; ++mag) {
        for (int i : {0, 1}) {
            const size_t at = 2 * static_cast<size_t>(mag - 1) + i;
            step[at] = rate[mag] <= 0.0 ? kNegInf
                                        : std::log(rate[mag]) +
                                              (i ? log_minus : log_plus);
            raw[at] = step[at] + log_pinned;
        }
    }
    // A positive-direction STS pushes walls in interval (k, k+1) to
    // step error k + 1, so the pre-STS interval that feeds +k errors
    // is (k-1, k); for -k errors it is (-k, -k+1).
    for (int floor_k = -kmax; floor_k < kmax; ++floor_k) {
        double sum = 0.0;
        const int plus_k = floor_k + 1; // +k error it becomes after STS
        if (plus_k >= 1)
            sum += rate[plus_k] * kPlusFraction * kMiddleFraction;
        const int minus_k = -floor_k; // -k error it becomes after -STS
        if (minus_k >= 1)
            sum += rate[minus_k] * (1.0 - kPlusFraction) * kMiddleFraction;
        middle[floor_k + kmax] = sum > 0.0 ? std::log(sum) : kNegInf;
    }
}

void
fillImpossibleRow(int, double *step, double *raw, double *middle)
{
    for (size_t i = 0; i < 2 * kScriptedMaxStepError; ++i)
        step[i] = raw[i] = middle[i] = kNegInf;
}

} // anonymous namespace

const PositionErrorModel &
PositionErrorModel::nonNullBase(
    const std::shared_ptr<const PositionErrorModel> &base, const char *who)
{
    if (!base)
        rtm_fatal("%s: null base model", who);
    return *base;
}

PaperCalibratedErrorModel::PaperCalibratedErrorModel()
    : PositionErrorModel([] {
          static const PositionErrorModel paper(kPaperMaxStepError,
                                                fillPaperRow);
          return paper;
      }())
{
}

ScaledErrorModel::ScaledErrorModel(
    const std::shared_ptr<const PositionErrorModel> &base, double factor)
    : PositionErrorModel(
          scaledTable(nonNullBase(base, "ScaledErrorModel"), factor))
{
}

ScriptedErrorModel::ScriptedErrorModel(std::vector<ShiftOutcome> script)
    : PositionErrorModel([] {
          static const PositionErrorModel impossible(
              kScriptedMaxStepError, fillImpossibleRow);
          return impossible;
      }())
{
    script_ = std::move(script);
}

} // namespace rtm
