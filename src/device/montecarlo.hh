/**
 * @file
 * Monte-Carlo position-error extractor (paper Sec. 3.1, Fig. 4).
 *
 * Each trial samples a stripe geometry (Table 1 variations), walks a
 * wall front through N pitches using the Eq. 2 timing model with
 * per-notch re-synchronisation, and records where the front rests
 * when the nominal stage-1 pulse ends. Outcomes are classified into
 * the paper's Fig. 4 bins: exact +/-k out-of-step errors and the
 * (k, k+1) stop-in-middle intervals. A Gaussian fit of the continuous
 * deviation yields a FittedErrorModel whose closed-form tails cover
 * probabilities far below direct sampling reach.
 */

#ifndef RTM_DEVICE_MONTECARLO_HH
#define RTM_DEVICE_MONTECARLO_HH

#include <cstdint>
#include <vector>

#include "device/fitted_model.hh"
#include "device/mc_kernel.hh"
#include "device/params.hh"
#include "device/timing.hh"
#include "util/parallel.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/telemetry.hh"

namespace rtm
{

/** Fig. 4 style outcome bins for one shift distance. */
struct ErrorPdf
{
    int distance = 0;          //!< shift distance in steps
    uint64_t trials = 0;       //!< Monte-Carlo trials run

    /** counts[k + offset] = exact out-of-step error k (k=0 is ok). */
    IntTally step_counts;

    /** middle_counts[k] = stop-in-middle in interval (k, k+1). */
    IntTally middle_counts;

    /** Continuous end-of-pulse deviation statistics (pitches). */
    RunningStats deviation;

    /**
     * Trials actually recorded in the outcome tallies. Probabilities
     * are derived from this (every trial lands in exactly one bin),
     * so they cannot drift from the tallies after a merge, whatever
     * the `trials` field says.
     */
    uint64_t tallyTrials() const;

    /**
     * Merge a shard's bins into this accumulator. Panics when the
     * distances differ or either side's `trials` field disagrees
     * with its tallies.
     */
    void merge(const ErrorPdf &other);

    /** Empirical probability of exact out-of-step error k. */
    double stepProbability(int k) const;

    /** Empirical probability of stop-in-middle in (k, k+1). */
    double middleProbability(int k) const;
};

/**
 * Monte-Carlo simulator of stage-1 shift pulses.
 */
class PositionErrorMonteCarlo
{
  public:
    /**
     * @param params nominal device parameters
     * @param seed   RNG seed (trials are deterministic given seed)
     * @param tier   batched-kernel reproducibility tier
     */
    explicit PositionErrorMonteCarlo(const DeviceParams &params,
                                     uint64_t seed = 12345,
                                     McTier tier = McTier::Exact);

    /**
     * Run trials for a given shift distance.
     *
     * Trials are split into shardCount(trials) shards, each with its
     * own RNG forked deterministically from this object's stream, and
     * fanned out over the global ThreadPool. Results are bit-identical
     * for a given (seed, trial count, tier) at any RTM_THREADS
     * setting, but differ from the historical single-stream ordering.
     *
     * Shards execute through the batched SoA kernels (mc_kernel.hh).
     * In the exact tier (default) the result is bit-identical to
     * runScalarReference(); the fast tier draws its noise in batch
     * order through the branchless vecmath transforms and is pinned
     * by its own golden digests instead.
     *
     * @param distance steps per shift (>= 1)
     * @param trials   number of Monte-Carlo trials
     * @return per-bin outcome statistics
     */
    ErrorPdf run(int distance, uint64_t trials);

    /**
     * The pre-batching scalar path, frozen as a reference: identical
     * shard structure, but each shard walks one trial at a time via
     * simulateDeviation() + classify(). Exact-tier run() must stay
     * bit-identical to this, which
     * MonteCarlo.ExactTierMatchesScalarReferenceBitwise enforces.
     * Consumes the same amount of the seed stream as run() with the
     * same arguments.
     */
    ErrorPdf runScalarReference(int distance, uint64_t trials);

    /**
     * Simulate a single pulse; returns the continuous deviation of
     * the wall front from its target, in pitches (positive = past).
     */
    double simulateDeviation(int distance, Rng &rng) const;

    /**
     * Fit the AR(1)-Gaussian core of a FittedErrorModel from
     * Monte-Carlo deviation moments at two distances, keeping the
     * tail (skip) parameters at their defaults. Sharded across the
     * global ThreadPool with the same determinism guarantee as run().
     */
    FittedErrorModel fitModel(uint64_t trials_per_distance = 200000);

    /** Reproducibility tier the batched kernels run in. */
    McTier tier() const { return tier_; }

    /** Switch tiers; takes effect on the next run()/fitModel(). */
    void setTier(McTier tier) { tier_ = tier; }

    /** Re-synchronisation factor per notch transit (model input). */
    double resyncRho() const { return resync_rho_; }

    /**
     * Per-step time jitter, relative to the nominal step time.
     * Cached: the value depends only on DeviceParams, so it is
     * computed once at construction, not per trial.
     */
    double stepJitter() const { return step_jitter_; }

    /**
     * Recompute the step jitter from the timing model (eight RK4
     * ShiftTiming::stepTime evaluations for central-difference
     * sensitivities). The constructor calls it once and caches the
     * result as stepJitter().
     */
    double computeStepJitter() const;

    /**
     * Attach an observability sink: run()/fitModel() record trial
     * counts, deviation moments, and wall-clock spans (on the
     * calling thread, after the sharded reduce — never from
     * workers). Results are bit-identical either way.
     */
    void setTelemetry(TelemetryScope telemetry)
    {
        telemetry_ = telemetry.get();
    }

    /**
     * Optional cooperative stop flag, polled at shard boundaries by
     * run()/runScalarReference()/fitModel(). Once it trips, the
     * remaining shards contribute nothing (a stopped fitModel()
     * returns the default parameters) and the partial result must
     * be discarded by the caller (the experiment engine does so by
     * classifying the cell as cancelled/timed-out). A run that never
     * observes the stop stays bit-identical to one with no flag.
     */
    void setStopFlag(StopFlag *stop) { stop_ = stop; }

  private:
    DeviceParams params_;
    ShiftTiming timing_;
    Rng rng_;
    McTier tier_;
    double resync_rho_;

    // Per-trial constants hoisted out of simulateDeviation: the
    // drive-scaled jitter and drift depend only on DeviceParams.
    double step_jitter_ = 0.0;
    double trial_jitter_ = 0.0;
    double trial_drift_ = 0.0;

    /** Observability sink (null = disabled). */
    Telemetry *telemetry_ = nullptr;

    /** Cooperative stop flag (null = never stops). */
    StopFlag *stop_ = nullptr;

    /** Classify a continuous deviation into Fig. 4 bins. */
    void classify(double deviation, ErrorPdf &pdf) const;
};

} // namespace rtm

#endif // RTM_DEVICE_MONTECARLO_HH
