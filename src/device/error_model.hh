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
 * Models expose per-distance log-probabilities for both error classes
 * and can sample concrete outcomes for fault injection. The default
 * architecture-level model, PaperCalibratedErrorModel, reproduces the
 * paper's published Table 2 rates (with power-law extrapolation beyond
 * 7 steps) and an associated pre-STS stop-in-middle split, mirroring
 * the paper's methodology of feeding device-model rates into the
 * system simulator.
 */

#ifndef RTM_DEVICE_ERROR_MODEL_HH
#define RTM_DEVICE_ERROR_MODEL_HH

#include <memory>
#include <vector>

#include "util/rng.hh"

namespace rtm
{

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

/**
 * Interface: probability model for position errors of a single stripe
 * shift of a given distance.
 *
 * Probabilities are returned as natural logs; impossible outcomes
 * return -infinity. "after STS" refers to the two-stage sub-threshold
 * shift of Sec. 4.1 which converts stop-in-middle outcomes into
 * out-of-step ones.
 */
class PositionErrorModel
{
  public:
    virtual ~PositionErrorModel() = default;

    /**
     * Log-probability that an N-step shift with STS ends with signed
     * out-of-step error k (k != 0).
     */
    virtual double logProbStep(int distance, int step_error) const = 0;

    /**
     * Log-probability that an N-step shift *without* the STS stage
     * stops in the flat region between over-shift k and k+1.
     */
    virtual double logProbStopInMiddle(int distance,
                                       int interval_floor) const = 0;

    /**
     * Log-probability that an N-step shift *without* STS ends pinned
     * in the wrong notch with signed error k. Post-STS rates fold the
     * flat-region mass into +1 more step, so the raw out-of-step
     * share is strictly smaller; the default assumes no difference.
     */
    virtual double logProbStepRaw(int distance, int step_error) const;

    /**
     * Fill plus[m-1] = logProbStep(distance, +m) and
     * minus[m-1] = logProbStep(distance, -m) for m in
     * [1, max_magnitude]. The default forwards to the scalar calls;
     * models whose adjacent outcomes share work (FittedErrorModel's
     * Gaussian bin boundaries) override it with a batched evaluation
     * that returns bit-identical values.
     */
    virtual void logProbStepRange(int distance, int max_magnitude,
                                  double *plus, double *minus) const;

    /** Log-probability that an N-step shift (with STS) is correct. */
    double logProbSuccess(int distance) const;

    /**
     * Log-probability of any out-of-step error of magnitude >= k for
     * an N-step shift with STS (sum over both signs).
     */
    double logProbAtLeast(int distance, int magnitude) const;

    /**
     * Sample one outcome for an N-step shift: one rng.uniform() draw
     * walked against outcomeList(). Models with a precomputed list
     * (ScaledErrorModel) walk that instead, with identical results.
     */
    virtual ShiftOutcome sample(Rng &rng, int distance,
                                bool sts_enabled) const;

    /** Largest |k| this model assigns non-negligible probability. */
    virtual int maxStepError() const { return 4; }

  protected:
    /**
     * One entry of a cumulative outcome list: a uniform draw u
     * selects the outcome of the first entry whose running
     * probability sum exceeds it.
     */
    struct CumulativeOutcome
    {
        double acc = 0.0;     //!< running sum of outcome probabilities
        ShiftOutcome outcome; //!< outcome selected by this entry
    };

    /**
     * Fill `out` with the cumulative outcome list of an N-step
     * shift: out-of-step +1, -1, +2, -2, ... up to maxStepError()
     * and, without STS, the stop-in-middle floors from
     * -maxStepError() upward, each entry holding the running sum of
     * exp(log-probability) in exactly that order. The order and the
     * additions are what make every tabulated sample bit-identical
     * to one built on the fly.
     */
    void outcomeList(int distance, bool sts_enabled,
                     std::vector<CumulativeOutcome> *out) const;

    /** The outcome draw `u` selects from a cumulative list (success
     *  when it falls past the last entry). */
    static ShiftOutcome
    pickOutcome(const std::vector<CumulativeOutcome> &list, double u)
    {
        // The running sums never decrease, so a draw at or past the
        // last one (the common, successful shift) passes them all.
        if (list.empty() || u >= list.back().acc)
            return ShiftOutcome{};
        for (const CumulativeOutcome &e : list) {
            if (u < e.acc)
                return e.outcome;
        }
        return ShiftOutcome{};
    }
};

/**
 * Paper-calibrated model: Table 2 rates for distances 1..7, power-law
 * extrapolation beyond, split between + and - errors by a configurable
 * asymmetry (the paper notes + errors dominate because the drive is
 * above threshold).
 */
class PaperCalibratedErrorModel : public PositionErrorModel
{
  public:
    /**
     * @param plus_fraction share of each |k| rate assigned to +k
     * @param pre_sts_middle_fraction share of the raw per-|k| error
     *        mass that manifests as stop-in-middle before STS
     */
    explicit PaperCalibratedErrorModel(
        double plus_fraction = 0.8,
        double pre_sts_middle_fraction = 0.85);

    double logProbStep(int distance, int step_error) const override;
    double logProbStopInMiddle(int distance,
                               int interval_floor) const override;
    double logProbStepRaw(int distance,
                          int step_error) const override;
    int maxStepError() const override { return 3; }

    /** Combined +/-k rate for an N-step shift (linear domain). */
    double stepErrorRate(int distance, int magnitude) const;

  private:
    double plus_fraction_;
    double middle_fraction_;
};

/**
 * Wrapper that scales another model's error rates by a constant factor
 * (used by ablation benches and accelerated fault-injection tests).
 *
 * Every fault drill injects through this wrapper, so it tabulates its
 * cumulative outcome lists once at construction: sample() is then one
 * uniform draw and a short compare walk instead of ~24 libm calls.
 */
class ScaledErrorModel final : public PositionErrorModel
{
  public:
    /**
     * Longest shift whose outcome lists are tabulated: the largest
     * distance the fault drills request (the del-ins-k readout's
     * return shift on 8-domain segments reaches 15; the campaign
     * and positional stress drills stay within Lseg - 1 = 7).
     * Longer shifts build their list on the fly.
     */
    static constexpr int kTabulatedDistance = 15;

    ScaledErrorModel(std::shared_ptr<const PositionErrorModel> base,
                     double factor);

    double logProbStep(int distance, int step_error) const override;
    double logProbStopInMiddle(int distance,
                               int interval_floor) const override;
    double logProbStepRaw(int distance,
                          int step_error) const override;
    int maxStepError() const override;

    /** Header-inline so a scenario holding this (final) class calls
     *  it directly: one uniform draw walked against the table. */
    ShiftOutcome sample(Rng &rng, int distance,
                        bool sts_enabled) const override
    {
        if (distance < 1 || distance > kTabulatedDistance)
            return PositionErrorModel::sample(rng, distance,
                                              sts_enabled);
        return pickOutcome(
            outcomes_[sts_enabled ? 1 : 0][static_cast<size_t>(
                distance - 1)],
            rng.uniform());
    }

  private:
    std::shared_ptr<const PositionErrorModel> base_;
    double log_factor_;
    /** outcomes_[sts][d - 1]: outcome list of a d-step shift. */
    std::vector<std::vector<CumulativeOutcome>> outcomes_[2];
};

/**
 * Deterministic scripted model: pops outcomes from a fixed list
 * (useful for unit-testing correction logic with exact scenarios).
 * With an empty script it is the error-free model.
 */
class ScriptedErrorModel : public PositionErrorModel
{
  public:
    /** Outcomes are consumed in order; afterwards shifts succeed. */
    explicit ScriptedErrorModel(std::vector<ShiftOutcome> script = {});

    double logProbStep(int, int) const override;
    double logProbStopInMiddle(int, int) const override;
    ShiftOutcome sample(Rng &, int, bool) const override;
    int maxStepError() const override { return 8; }

    /** Outcomes not yet consumed. */
    size_t remaining() const { return script_.size() - pos_; }

  private:
    std::vector<ShiftOutcome> script_;
    mutable size_t pos_ = 0;
};

} // namespace rtm

#endif // RTM_DEVICE_ERROR_MODEL_HH
