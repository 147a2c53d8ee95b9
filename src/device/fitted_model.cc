#include "fitted_model.hh"

#include <cmath>
#include <limits>

#include "util/logging.hh"
#include "util/prob.hh"

namespace rtm
{

namespace
{

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr int kFittedMaxStepError = 3;

double
sigmaOf(const FittedModelParams &p, int distance)
{
    // AR(1) variance after N steps:
    //   var(N) = sigma^2 * (1 - rho^N) / (1 - rho) ... using rho as
    // the per-step variance survival factor.
    double rho = p.resync_rho;
    double n = static_cast<double>(distance);
    double var = p.sigma_step * p.sigma_step * (1.0 - std::pow(rho, n)) /
                 (1.0 - rho);
    return std::sqrt(var);
}

double
meanOf(const FittedModelParams &p, int distance)
{
    // Drift saturates with the same AR(1) memory.
    double rho = p.resync_rho;
    double n = static_cast<double>(distance);
    return p.drift * (1.0 - std::pow(rho, n)) / (1.0 - rho);
}

/** Log-probability of a standard normal landing in (lo, hi]. */
double
logBand(double lo, double hi)
{
    return logDiffExp(logNormalTail(lo), logNormalTail(hi));
}

/** One distance's row of the fitted model (PositionErrorModel::RowFill). */
void
fillRow(const FittedModelParams &p, int distance, double *step,
        double *raw, double *middle)
{
    const int kmax = kFittedMaxStepError;
    const double w = p.notch_half_width;
    const double mu = meanOf(p, distance);
    const double sigma = sigmaOf(p, distance);
    // After a positive-direction STS stage, a deviation e lands the
    // wall at final step error k iff e in (k - 1 + w, k + w] (walls
    // inside notch k stay; walls in the flat after notch k are pushed
    // into notch k+1). Bin boundary ladder: x_k = (k + w - mu) / sigma
    // for k in [-kmax - 1, kmax], each interior boundary serving two
    // adjacent bins.
    constexpr size_t nb = 2 * kmax + 2;
    double x[nb], q[nb];
    for (size_t i = 0; i < nb; ++i) {
        double k = static_cast<double>(static_cast<int>(i) - kmax - 1);
        x[i] = (k + w - mu) / sigma;
    }
    logNormalTailBatch(x, q, nb);
    auto gauss = [&](int k) {
        // q index of boundary x_k is k + kmax + 1.
        return logDiffExp(q[k + kmax], q[k + kmax + 1]);
    };
    // Rare notch-skip (stall) events displace the wall one whole pitch
    // forward (backward). A |k|-step error requires |k| - 1 such
    // events plus a +/-1 Gaussian excursion, or |k| events with a
    // clean core; the first term dominates at our rates. Backward
    // (stall) events reuse the Gaussian +/-1 asymmetry via the sign of
    // the excursion.
    const double log_event =
        p.log_skip_base +
        p.skip_growth * static_cast<double>(distance - 1);
    auto skip = [&](int k) {
        const int mag = std::abs(k);
        return static_cast<double>(mag - 1) * log_event +
               gauss(k > 0 ? 1 : -1);
    };
    for (int mag = 1; mag <= kmax; ++mag) {
        for (int i : {0, 1}) {
            const int k = i ? -mag : mag;
            const size_t at = 2 * static_cast<size_t>(mag - 1) + i;
            step[at] = mag == 1 ? gauss(k) : logSumExp(gauss(k), skip(k));
            // Pre-STS out-of-step: the deviation must land *inside*
            // the wrong notch region (k - w, k + w], not merely past it.
            const double kd = static_cast<double>(k);
            raw[at] = logBand((kd - w - mu) / sigma, (kd + w - mu) / sigma);
            if (mag >= 2)
                raw[at] = logSumExp(raw[at], skip(k));
        }
    }
    // Without STS, the wall rests wherever the stage-1 pulse leaves
    // it. Deviation e in the flat interval (k + w, k + 1 - w) is a
    // stop-in-middle between over-shift k and k+1.
    for (int floor_k = -kmax; floor_k < kmax; ++floor_k) {
        const double k = static_cast<double>(floor_k);
        middle[floor_k + kmax] =
            logBand((k + w - mu) / sigma, (k + 1.0 - w - mu) / sigma);
    }
}

const FittedModelParams &
validated(const FittedModelParams &params)
{
    if (params.sigma_step <= 0.0)
        rtm_fatal("FittedErrorModel: sigma_step must be positive");
    if (params.resync_rho < 0.0 || params.resync_rho >= 1.0)
        rtm_fatal("FittedErrorModel: resync_rho must be in [0,1)");
    return params;
}

} // anonymous namespace

FittedErrorModel::FittedErrorModel(FittedModelParams params)
    : PositionErrorModel(kFittedMaxStepError,
                         [&p = validated(params)](int d, double *step,
                                                  double *raw,
                                                  double *middle) {
                             fillRow(p, d, step, raw, middle);
                         }),
      params_(params)
{
}

double
FittedErrorModel::sigmaAt(int distance) const
{
    return sigmaOf(params_, distance);
}

double
FittedErrorModel::meanAt(int distance) const
{
    return meanOf(params_, distance);
}

} // namespace rtm
