/**
 * @file
 * Analytic position-error model fitted from Monte-Carlo trajectories.
 *
 * The Monte-Carlo extractor (montecarlo.hh) measures the continuous
 * over-shift deviation of the wall front at the end of the stage-1
 * pulse. Two mechanisms produce errors:
 *
 *  1. A Gaussian core: accumulated per-step timing jitter, partially
 *     re-synchronised by each notch transit (the notch acts as a speed
 *     bump: a wall arriving early spends longer inside it). This makes
 *     the deviation an AR(1)/Ornstein-Uhlenbeck process whose standard
 *     deviation grows sub-sqrt with distance - matching the paper's
 *     slow growth of the +/-1 rates between 1-step and 7-step shifts.
 *
 *  2. Rare notch-skip/stall events from the extreme tail of the
 *     pinning-depth distribution, which displace the wall by whole
 *     pitches and dominate the |k| >= 2 rates.
 *
 * The fitted model evaluates both mechanisms in closed form (log
 * domain), so tail rates far below Monte-Carlo reach (1e-21 scale,
 * like the paper's fitting-curve method) remain exact.
 */

#ifndef RTM_DEVICE_FITTED_MODEL_HH
#define RTM_DEVICE_FITTED_MODEL_HH

#include "device/error_model.hh"
#include "util/fields.hh"

namespace rtm
{

/** Parameters of the fitted two-mechanism error model. */
struct FittedModelParams
{
    /** Per-step deviation noise (std. dev., in pitches). */
    double sigma_step = 0.0295;

    /** AR(1) survival factor per notch transit (0 = full resync). */
    double resync_rho = 0.39;

    /** Stationary drift of the deviation (pitches, positive =
     *  over-shift bias from the 2*J0 overdrive). */
    double drift = 0.004;

    /** Half-width of the notch region in pitch units; deviations
     *  beyond this leave the wall outside its target notch. */
    double notch_half_width = 0.115;

    /** Log-probability a single notch is skipped at distance 1. */
    double log_skip_base = -48.0; // ~1.4e-21 / 4.55e-5 scale

    /** Growth of the skip log-probability per extra step. */
    double skip_growth = 2.59;

    bool operator==(const FittedModelParams &) const = default;
};

/** Keys of a Monte-Carlo cell's `fit` object (util/fields.hh). */
template <class V, FieldsOf<FittedModelParams>... S>
void
forEachField(V &&v, S &...s)
{
    v("sigma_step", s.sigma_step...);
    v("resync_rho", s.resync_rho...);
    v("drift", s.drift...);
    v("notch_half_width", s.notch_half_width...);
}

/**
 * The closed-form error model with the parameters above, tabulated:
 * the Gaussian core and the notch-skip tail evaluated once per
 * distance.
 */
class FittedErrorModel : public PositionErrorModel
{
  public:
    explicit FittedErrorModel(FittedModelParams params = {});

    /** Deviation std. dev. after an N-step pulse (pitches). */
    double sigmaAt(int distance) const;

    /** Deviation mean after an N-step pulse (pitches). */
    double meanAt(int distance) const;

    const FittedModelParams &params() const { return params_; }

  private:
    FittedModelParams params_;
};

} // namespace rtm

#endif // RTM_DEVICE_FITTED_MODEL_HH
