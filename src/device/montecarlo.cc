#include "montecarlo.hh"

#include <cmath>
#include <vector>

#include "util/logging.hh"
#include "util/parallel.hh"

namespace rtm
{

namespace
{

/** Notch half width in pitch units for the nominal geometry. */
double
notchHalfWidth(const DeviceParams &p)
{
    return 0.5 * p.pinning_width / p.pitch();
}

/**
 * Shard sizing for the batched kernels. The exact tier keeps the
 * historical shardSize() split so its per-shard draw streams (and
 * hence the golden digests) are unchanged; the fast tier aligns
 * shards to the batch granule so every shard's fill sizes - and
 * therefore its batch-order draw stream - are a pure function of
 * (trials, shard index).
 */
uint64_t
mcShardSize(McTier tier, uint64_t trials, size_t shards, size_t s)
{
    if (tier == McTier::Fast)
        return alignedShardSize(trials, shards, s, kMcBatchTrials);
    return shardSize(trials, shards, s);
}

} // anonymous namespace

uint64_t
ErrorPdf::tallyTrials() const
{
    return step_counts.total() + middle_counts.total();
}

void
ErrorPdf::merge(const ErrorPdf &other)
{
    if (other.tallyTrials() == 0 && other.trials == 0)
        return;
    if (tallyTrials() == 0 && trials == 0)
        distance = other.distance;
    if (distance != other.distance)
        rtm_panic("ErrorPdf::merge: distance %d vs %d", distance,
                  other.distance);
    if (trials != tallyTrials() ||
        other.trials != other.tallyTrials())
        rtm_panic("ErrorPdf::merge: trials field out of sync with "
                  "tallies (%llu vs %llu, other %llu vs %llu)",
                  static_cast<unsigned long long>(trials),
                  static_cast<unsigned long long>(tallyTrials()),
                  static_cast<unsigned long long>(other.trials),
                  static_cast<unsigned long long>(
                      other.tallyTrials()));
    step_counts.merge(other.step_counts);
    middle_counts.merge(other.middle_counts);
    deviation.merge(other.deviation);
    trials += other.trials;
}

double
ErrorPdf::stepProbability(int k) const
{
    uint64_t n = tallyTrials();
    if (n == 0)
        return 0.0;
    return static_cast<double>(step_counts.count(k)) /
           static_cast<double>(n);
}

double
ErrorPdf::middleProbability(int k) const
{
    uint64_t n = tallyTrials();
    if (n == 0)
        return 0.0;
    return static_cast<double>(middle_counts.count(k)) /
           static_cast<double>(n);
}

PositionErrorMonteCarlo::PositionErrorMonteCarlo(
    const DeviceParams &params, uint64_t seed, McTier tier)
    : params_(params), timing_(params), rng_(seed), tier_(tier)
{
    // Re-synchronisation strength: the fraction of an arrival-time
    // deviation a notch transit absorbs. A wall that arrives early is
    // slowed inside the notch for longer (and vice versa); the effect
    // scales with how much of the pitch the notch occupies and with
    // how hard the notch brakes the wall relative to the drive
    // (J0/J, weakened at overdrive). The resulting rho ~ 0.4 matches
    // the sub-sqrt growth of the paper's Table 2 +/-1 column between
    // 1-step and 7-step shifts.
    double geometric = params.pinning_width / params.pitch();
    double braking = 0.75 / params.overdrive;
    double absorb = std::min(0.95, geometric + braking);
    resync_rho_ = 1.0 - absorb;

    step_jitter_ = computeStepJitter();

    // Drive dependence (paper Sec. 3.1: "If J is too small, the rate
    // of under-shifted position errors increases. On the contrary,
    // if it is too large, the rate of over-shifted errors
    // increases"): near the depinning threshold the notch transit
    // time diverges, so both the per-step jitter and a *negative*
    // (late-arrival) drift grow as J -> J0; far above threshold the
    // margin built into the pulse width turns into a positive
    // (over-shoot) drift. Both terms are normalised so the paper's
    // operating point J = 2*J0 keeps the Table 2 calibration. All of
    // this depends only on DeviceParams, so it is computed once here
    // instead of on every trial.
    double margin = params_.overdrive - 1.0; // (J - J0) / J0
    if (margin < 0.05)
        margin = 0.05;
    trial_jitter_ = step_jitter_ * std::sqrt(1.0 / margin);
    trial_drift_ = 0.5 * trial_jitter_ * trial_jitter_ +
                   0.01 * (params_.overdrive - 1.0) -
                   0.008 / margin;
}

double
PositionErrorMonteCarlo::computeStepJitter() const
{
    // Relative std. dev. of one step's transit time, from linearised
    // Eq. 2 sensitivities to the Table 1 parameter variations.
    SampledParams nominal{params_.domain_wall_width,
                          params_.pinning_depth,
                          params_.pinning_width, params_.flat_width};
    double t0 = timing_.stepTime(nominal);

    // Numerical sensitivities via central differences. The whole
    // perturbation cluster (4 parameters x 2 sides) goes through one
    // batched stepTimes call; values are identical to per-sample
    // stepTime evaluations.
    constexpr double eps = 1e-4;
    SampledParams probes[8];
    for (int i = 0; i < 4; ++i) {
        for (int side = 0; side < 2; ++side) {
            double rel = side == 0 ? eps : -eps;
            SampledParams s = nominal;
            switch (i) {
              case 0: s.wall_width *= (1.0 + rel); break;
              case 1: s.pinning_depth *= (1.0 + rel); break;
              case 2: s.pinning_width *= (1.0 + rel); break;
              default: s.flat_width *= (1.0 + rel); break;
            }
            probes[2 * i + side] = s;
        }
    }
    double times[8];
    timing_.stepTimes(probes, times, 8);
    double sigmas[4] = {params_.sigma_wall_width, params_.sigma_depth,
                        params_.sigma_width,
                        params_.sigma_flat * params_.pinning_width /
                            params_.flat_width};
    double var = 0.0;
    for (int i = 0; i < 4; ++i) {
        double dt = (times[2 * i] - times[2 * i + 1]) / (2.0 * eps);
        double contrib = dt * sigmas[i] / t0;
        var += contrib * contrib;
    }
    return std::sqrt(var);
}

double
PositionErrorMonteCarlo::simulateDeviation(int distance, Rng &rng)
    const
{
    if (distance < 1)
        rtm_panic("simulateDeviation: distance must be >= 1");
    // Deviation is tracked in time units relative to the nominal step
    // time and converted to pitches at the end (the wall front moves
    // one pitch per nominal step time while driven). The drive-scaled
    // jitter/drift constants are cached at construction.
    double dev = 0.0; // pitches, positive = ahead of schedule
    for (int i = 0; i < distance; ++i) {
        // Per-notch geometry sample perturbs this step's transit.
        double step_noise = rng.gaussian(0.0, trial_jitter_);
        dev = resync_rho_ * dev + step_noise + trial_drift_;
    }
    return dev;
}

ErrorPdf
PositionErrorMonteCarlo::run(int distance, uint64_t trials)
{
    const double t0 = telemetry_ ? monotonicSeconds() : 0.0;
    // The shard count depends only on the trial count and each shard
    // owns an RNG forked deterministically from rng_ in shard order,
    // so the result is a pure function of (seed, trials) no matter
    // how many workers execute the shards.
    size_t shards = shardCount(trials);
    if (shards == 0) {
        ErrorPdf empty;
        empty.distance = distance;
        return empty;
    }
    std::vector<Rng> rngs;
    rngs.reserve(shards);
    for (size_t s = 0; s < shards; ++s)
        rngs.push_back(rng_.fork());
    if (distance < 1)
        rtm_panic("run: distance must be >= 1");
    McKernelParams kp{resync_rho_, trial_jitter_, trial_drift_,
                      notchHalfWidth(params_)};
    McTier tier = tier_;
    ErrorPdf pdf = shardedMapReduce<ErrorPdf>(
        shards,
        [&](size_t s) {
            ErrorPdf part;
            part.distance = distance;
            if (stop_ && stop_->poll())
                return part;
            uint64_t n = mcShardSize(tier, trials, shards, s);
            part.trials = n;
            Rng rng = rngs[s];
            mcAccumulate(tier, kp, distance, n, rng,
                         part.step_counts, part.middle_counts,
                         part.deviation);
            return part;
        },
        [](ErrorPdf &acc, const ErrorPdf &part) {
            acc.merge(part);
        });
    pdf.distance = distance;
    if (telemetry_) {
        // Recorded post-reduce on the calling thread: the workers
        // never see the sink, so no synchronisation is needed and
        // the merge discipline stays with shardedMapReduce.
        telemetry_->counter("device.mc.runs").add();
        telemetry_->counter("device.mc.trials").add(trials);
        telemetry_->gauge("device.mc.last_distance")
            .set(static_cast<double>(distance));
        telemetry_->gauge("device.mc.deviation_mean")
            .set(pdf.deviation.mean());
        telemetry_->gauge("device.mc.deviation_stddev")
            .set(pdf.deviation.stddev());
        telemetry_->gauge("device.mc.step_jitter").set(step_jitter_);
        telemetry_->gauge("device.mc.resync_rho").set(resync_rho_);
        telemetry_->span("mc.run", telemetry_->lane(), t0,
                         monotonicSeconds() - t0,
                         static_cast<double>(distance));
    }
    return pdf;
}

FittedErrorModel
PositionErrorMonteCarlo::fitModel(uint64_t trials_per_distance)
{
    const double t0 = telemetry_ ? monotonicSeconds() : 0.0;
    // Fit sigma_step / rho / drift from measured moments at short and
    // long distances. With AR(1) variance
    //   var(N) = s^2 (1 - rho^N) / (1 - rho),
    // var(1) = s^2 pins s directly; rho comes from var at N=7.
    // Sharded like run(): per-shard forked RNGs, reduced in order.
    struct Moments
    {
        RunningStats d1, d7;
    };
    size_t shards = shardCount(trials_per_distance);
    std::vector<Rng> rngs;
    rngs.reserve(shards);
    for (size_t s = 0; s < shards; ++s)
        rngs.push_back(rng_.fork());
    McKernelParams kp{resync_rho_, trial_jitter_, trial_drift_,
                      notchHalfWidth(params_)};
    McTier tier = tier_;
    Moments m = shardedMapReduce<Moments>(
        shards,
        [&](size_t s) {
            Moments part;
            if (stop_ && stop_->poll())
                return part;
            uint64_t n = mcShardSize(tier, trials_per_distance,
                                     shards, s);
            Rng rng = rngs[s];
            mcMoments(tier, kp, n, rng, part.d1, part.d7);
            return part;
        },
        [](Moments &acc, const Moments &part) {
            acc.d1.merge(part.d1);
            acc.d7.merge(part.d7);
        });
    FittedModelParams fit;
    // A stopped fit is discarded by the caller (see setStopFlag), and
    // its partial moments may have no spread to fit at all.
    if (stop_ && stop_->stopped())
        return FittedErrorModel(fit);
    fit.sigma_step = m.d1.stddev();
    double ratio = m.d7.variance() / std::max(m.d1.variance(), 1e-30);
    // Solve (1 - rho^7) / (1 - rho) = ratio by bisection on [0, 1).
    double lo = 0.0, hi = 0.999;
    for (int it = 0; it < 60; ++it) {
        double mid = 0.5 * (lo + hi);
        double v = (1.0 - std::pow(mid, 7.0)) / (1.0 - mid);
        (v < ratio ? lo : hi) = mid;
    }
    fit.resync_rho = 0.5 * (lo + hi);
    // Stationary drift: mean(1) = drift (first step has no memory).
    fit.drift = m.d1.mean();
    fit.notch_half_width = notchHalfWidth(params_);
    if (telemetry_) {
        telemetry_->counter("device.mc.fits").add();
        telemetry_->counter("device.mc.trials")
            .add(2 * trials_per_distance);
        telemetry_->gauge("device.mc.fit.sigma_step")
            .set(fit.sigma_step);
        telemetry_->gauge("device.mc.fit.resync_rho")
            .set(fit.resync_rho);
        telemetry_->gauge("device.mc.fit.drift").set(fit.drift);
        telemetry_->span("mc.fit", telemetry_->lane(), t0,
                         monotonicSeconds() - t0);
    }
    return FittedErrorModel(fit);
}

} // namespace rtm
