#include "error_model.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <vector>

#include "util/logging.hh"
#include "util/prob.hh"

namespace rtm
{

namespace
{

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
// ScaledErrorModel's per-outcome probability cap; equals std::log(0.5).
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

// Power-law exponents fitted to Table 2 for distances beyond 7 steps
// (used by the sensitivity studies with long segments):
//   P1(N) = P1(1) * N^1.64     P2(N) = P2(1) * N^8.0
constexpr double kK1Exponent = 1.64;
constexpr double kK2Exponent = 8.0;

double
extrapolate(const double *table, double exponent, int distance)
{
    double scale = std::pow(static_cast<double>(distance) / 7.0,
                            exponent);
    double v = table[6] * scale;
    return std::min(v, 0.5);
}

} // anonymous namespace

void
PositionErrorModel::logProbStepRange(int distance, int max_magnitude,
                                     double *plus, double *minus) const
{
    for (int m = 1; m <= max_magnitude; ++m) {
        plus[m - 1] = logProbStep(distance, m);
        minus[m - 1] = logProbStep(distance, -m);
    }
}

double
PositionErrorModel::logProbSuccess(int distance) const
{
    // 1 - sum of all error outcomes, computed in log space. The
    // whole +/-k ladder comes from one batched range evaluation;
    // accumulation order matches the historical per-call loop.
    const int kmax = maxStepError();
    double log_err = kNegInf;
    if (kmax > 0) {
        std::vector<double> plus(kmax), minus(kmax);
        logProbStepRange(distance, kmax, plus.data(), minus.data());
        for (int k = 1; k <= kmax; ++k) {
            log_err = logSumExp(log_err, plus[k - 1]);
            log_err = logSumExp(log_err, minus[k - 1]);
        }
    }
    if (log_err == kNegInf)
        return 0.0;
    if (log_err >= 0.0)
        return kNegInf;
    return log1mExp(log_err);
}

double
PositionErrorModel::logProbAtLeast(int distance, int magnitude) const
{
    const int kmax = maxStepError();
    double acc = kNegInf;
    if (kmax > 0 && magnitude <= kmax) {
        std::vector<double> plus(kmax), minus(kmax);
        logProbStepRange(distance, kmax, plus.data(), minus.data());
        for (int k = std::max(magnitude, 1); k <= kmax; ++k) {
            acc = logSumExp(acc, plus[k - 1]);
            acc = logSumExp(acc, minus[k - 1]);
        }
    }
    return acc;
}

double
PositionErrorModel::logProbStepRaw(int distance, int step_error) const
{
    return logProbStep(distance, step_error);
}

ShiftOutcome
PositionErrorModel::sample(Rng &rng, int distance, bool sts_enabled)
    const
{
    const double u = rng.uniform();
    std::vector<CumulativeOutcome> list;
    outcomeList(distance, sts_enabled, &list);
    return pickOutcome(list, u);
}

void
PositionErrorModel::outcomeList(int distance, bool sts_enabled,
                                std::vector<CumulativeOutcome> *out)
    const
{
    out->clear();
    double acc = 0.0;
    auto add = [&](double log_p, int step_error, bool middle) {
        acc += std::exp(log_p);
        out->push_back({acc, {step_error, middle}});
    };
    // Out-of-step outcomes from most likely outward. Without STS the
    // pinned share excludes the flat-region mass STS would otherwise
    // fold in, and the flat-region (stop-in-middle) floors follow.
    const int kmax = maxStepError();
    for (int mag = 1; mag <= kmax; ++mag) {
        for (int sign : {+1, -1}) {
            const int k = sign * mag;
            add(sts_enabled ? logProbStep(distance, k)
                            : logProbStepRaw(distance, k),
                k, false);
        }
    }
    if (sts_enabled)
        return;
    for (int floor_k = -kmax; floor_k < kmax; ++floor_k)
        add(logProbStopInMiddle(distance, floor_k), floor_k, true);
}

PaperCalibratedErrorModel::PaperCalibratedErrorModel(
    double plus_fraction, double pre_sts_middle_fraction)
    : plus_fraction_(plus_fraction),
      middle_fraction_(pre_sts_middle_fraction)
{
    if (plus_fraction_ < 0.0 || plus_fraction_ > 1.0)
        rtm_fatal("plus_fraction must be in [0,1]");
    if (middle_fraction_ < 0.0 || middle_fraction_ > 1.0)
        rtm_fatal("pre_sts_middle_fraction must be in [0,1]");
}

double
PaperCalibratedErrorModel::stepErrorRate(int distance,
                                         int magnitude) const
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

double
PaperCalibratedErrorModel::logProbStep(int distance,
                                       int step_error) const
{
    if (step_error == 0)
        rtm_panic("logProbStep: step_error must be non-zero");
    int mag = std::abs(step_error);
    double rate = stepErrorRate(distance, mag);
    if (rate <= 0.0)
        return kNegInf;
    double frac = step_error > 0 ? plus_fraction_
                                 : 1.0 - plus_fraction_;
    if (frac <= 0.0)
        return kNegInf;
    return std::log(rate) + std::log(frac);
}

double
PaperCalibratedErrorModel::logProbStepRaw(int distance,
                                          int step_error) const
{
    // Before STS only (1 - middle_fraction) of each rate manifests
    // as a wall pinned in the wrong notch; the rest rests in the
    // flat region (stop-in-middle).
    double lp = logProbStep(distance, step_error);
    if (middle_fraction_ >= 1.0)
        return -std::numeric_limits<double>::infinity();
    return lp + std::log(1.0 - middle_fraction_);
}

double
PaperCalibratedErrorModel::logProbStopInMiddle(int distance,
                                               int interval_floor)
    const
{
    // Before STS, a fraction of each +/-k error mass is actually a
    // wall resting in the adjacent flat region. A positive-direction
    // STS pushes walls in interval (k, k+1) to step error k + 1, so
    // the pre-STS interval that feeds +k errors is (k-1, k); for -k
    // errors it is (-k, -k+1).
    if (middle_fraction_ <= 0.0)
        return kNegInf;
    double rate = 0.0;
    // interval (interval_floor, interval_floor + 1)
    int plus_k = interval_floor + 1; // +k error it becomes after STS
    if (plus_k >= 1 && plus_k <= maxStepError()) {
        rate += stepErrorRate(distance, plus_k) * plus_fraction_ *
                middle_fraction_;
    }
    int minus_k = -interval_floor; // -k error it becomes after -STS
    if (minus_k >= 1 && minus_k <= maxStepError()) {
        rate += stepErrorRate(distance, minus_k) *
                (1.0 - plus_fraction_) * middle_fraction_;
    }
    return rate > 0.0 ? std::log(rate) : kNegInf;
}

ScaledErrorModel::ScaledErrorModel(
    std::shared_ptr<const PositionErrorModel> base, double factor)
    : base_(std::move(base)), log_factor_(std::log(factor))
{
    if (!base_)
        rtm_fatal("ScaledErrorModel: null base model");
    if (!(factor > 0.0) || std::isinf(factor))
        rtm_fatal("ScaledErrorModel: factor must be positive and finite");
    for (int sts = 0; sts < 2; ++sts) {
        outcomes_[sts].resize(kTabulatedDistance);
        for (int d = 1; d <= kTabulatedDistance; ++d)
            outcomeList(d, sts != 0, &outcomes_[sts][d - 1]);
    }
}

double
ScaledErrorModel::logProbStep(int distance, int step_error) const
{
    double lp = base_->logProbStep(distance, step_error) + log_factor_;
    return std::min(lp, kLogHalf);
}

double
ScaledErrorModel::logProbStopInMiddle(int distance,
                                      int interval_floor) const
{
    double lp = base_->logProbStopInMiddle(distance, interval_floor) +
                log_factor_;
    return std::min(lp, kLogHalf);
}

double
ScaledErrorModel::logProbStepRaw(int distance, int step_error) const
{
    double lp = base_->logProbStepRaw(distance, step_error) +
                log_factor_;
    return std::min(lp, kLogHalf);
}

int
ScaledErrorModel::maxStepError() const
{
    return base_->maxStepError();
}

ScriptedErrorModel::ScriptedErrorModel(std::vector<ShiftOutcome> script)
    : script_(std::move(script))
{
}

double
ScriptedErrorModel::logProbStep(int, int) const
{
    return kNegInf;
}

double
ScriptedErrorModel::logProbStopInMiddle(int, int) const
{
    return kNegInf;
}

ShiftOutcome
ScriptedErrorModel::sample(Rng &, int, bool) const
{
    if (pos_ < script_.size())
        return script_[pos_++];
    return ShiftOutcome{};
}

} // namespace rtm
