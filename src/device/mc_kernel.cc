#include "mc_kernel.hh"

#include <cmath>
#include <vector>

namespace rtm
{

namespace
{

// Dense per-shard histogram window. Deviations land within a few
// notches of zero for any sane DeviceParams, so [-32, 32) absorbs
// essentially every trial; the sparse IntTally only ever sees
// pathological outliers. Flushing once per shard replaces a
// std::map insert per trial with an array increment.
constexpr int64_t kDenseLo = -32;
constexpr size_t kDenseBins = 64;

void
fillNoise(McTier tier, Rng &rng, double *dst, size_t n)
{
    if (tier == McTier::Fast)
        rng.fillGaussianFast(dst, n);
    else
        rng.fillGaussian(dst, n);
}

/**
 * Scatter trial-major draws into a step-major noise plane:
 * plane[k][t] = 0.0 + jitter * z(t, k) - the same scale expression
 * rng.gaussian(0.0, jitter) applies per draw, so exact-tier values
 * are bit-equal to the scalar path's step noise.
 */
void
transposeScale(const double *zbuf, size_t lanes, size_t stride,
               size_t offset, int steps, double jitter, double *noise)
{
    for (int k = 0; k < steps; ++k) {
        double *plane = noise + static_cast<size_t>(k) * lanes;
        const double *src = zbuf + offset + static_cast<size_t>(k);
        for (size_t t = 0; t < lanes; ++t)
            plane[t] = 0.0 + jitter * src[t * stride];
    }
}

/**
 * March the AR(1) recurrence across the whole lane array one step at
 * a time. Per lane this is the identical operation sequence as the
 * scalar walk (rho * dev + noise, then + drift, from dev = 0.0);
 * across lanes it is branch-free over contiguous arrays, which is
 * what lets the compiler vectorise it without -ffast-math.
 */
void
arSweep(const double *noise, int steps, size_t lanes, double rho,
        double drift, double *dev)
{
    for (size_t t = 0; t < lanes; ++t)
        dev[t] = 0.0;
    for (int k = 0; k < steps; ++k) {
        const double *plane = noise + static_cast<size_t>(k) * lanes;
#pragma omp simd
        for (size_t t = 0; t < lanes; ++t)
            dev[t] = rho * dev[t] + plane[t] + drift;
    }
}

} // anonymous namespace

void
mcAccumulate(McTier tier, const McKernelParams &kp, int distance,
             uint64_t trials, Rng &rng, IntTally &step_counts,
             IntTally &middle_counts, RunningStats &deviation)
{
    const size_t steps = static_cast<size_t>(distance);
    std::vector<double> zbuf(kMcBatchTrials * steps);
    std::vector<double> noise(kMcBatchTrials * steps);
    std::vector<double> dev(kMcBatchTrials);
    uint64_t dense_step[kDenseBins] = {};
    uint64_t dense_mid[kDenseBins] = {};
    const double w = kp.notch_half_width;

    for (uint64_t done = 0; done < trials;) {
        const size_t lanes = static_cast<size_t>(
            std::min<uint64_t>(kMcBatchTrials, trials - done));
        fillNoise(tier, rng, zbuf.data(), lanes * steps);
        transposeScale(zbuf.data(), lanes, steps, 0, distance,
                       kp.trial_jitter, noise.data());
        arSweep(noise.data(), distance, lanes, kp.resync_rho,
                kp.trial_drift, dev.data());
        // Classification keeps the scalar path's std::round /
        // std::floor semantics (ties away from zero; the 0.5-add
        // trick mis-rounds 0.49999999999999994), so it stays a
        // scalar loop; the AR sweep and the transforms above are
        // where the lanes pay off.
        for (size_t t = 0; t < lanes; ++t) {
            const double v = dev[t];
            const double nearest = std::round(v);
            if (std::abs(v - nearest) <= w) {
                const int64_t k = static_cast<int64_t>(nearest);
                if (static_cast<uint64_t>(k - kDenseLo) < kDenseBins)
                    ++dense_step[k - kDenseLo];
                else
                    step_counts.add(k);
            } else {
                const int64_t k =
                    static_cast<int64_t>(std::floor(v - w));
                if (static_cast<uint64_t>(k - kDenseLo) < kDenseBins)
                    ++dense_mid[k - kDenseLo];
                else
                    middle_counts.add(k);
            }
            deviation.add(v);
        }
        done += lanes;
    }
    // One flush per shard; IntTally contents are per-key sums, so the
    // deferred adds leave the merged result identical to per-trial
    // inserts.
    for (size_t i = 0; i < kDenseBins; ++i) {
        if (dense_step[i])
            step_counts.add(kDenseLo + static_cast<int64_t>(i),
                            dense_step[i]);
        if (dense_mid[i])
            middle_counts.add(kDenseLo + static_cast<int64_t>(i),
                              dense_mid[i]);
    }
}

void
mcMoments(McTier tier, const McKernelParams &kp, uint64_t trials,
          Rng &rng, RunningStats &d1, RunningStats &d7)
{
    // Each trial draws 1 + 7 gaussians: the 1-step walk's noise
    // first, then the seven 7-step draws, exactly the scalar
    // interleave of simulateDeviation(1) then simulateDeviation(7).
    constexpr size_t kPerTrial = 8;
    std::vector<double> zbuf(kMcBatchTrials * kPerTrial);
    std::vector<double> n1(kMcBatchTrials);
    std::vector<double> n7(kMcBatchTrials * 7);
    std::vector<double> dev1(kMcBatchTrials);
    std::vector<double> dev7(kMcBatchTrials);

    for (uint64_t done = 0; done < trials;) {
        const size_t lanes = static_cast<size_t>(
            std::min<uint64_t>(kMcBatchTrials, trials - done));
        fillNoise(tier, rng, zbuf.data(), lanes * kPerTrial);
        transposeScale(zbuf.data(), lanes, kPerTrial, 0, 1,
                       kp.trial_jitter, n1.data());
        transposeScale(zbuf.data(), lanes, kPerTrial, 1, 7,
                       kp.trial_jitter, n7.data());
        arSweep(n1.data(), 1, lanes, kp.resync_rho, kp.trial_drift,
                dev1.data());
        arSweep(n7.data(), 7, lanes, kp.resync_rho, kp.trial_drift,
                dev7.data());
        // Welford accumulation is order-sensitive; interleave per
        // trial like the scalar loop (each accumulator still sees
        // its samples in trial order).
        for (size_t t = 0; t < lanes; ++t) {
            d1.add(dev1[t]);
            d7.add(dev7[t]);
        }
        done += lanes;
    }
}

} // namespace rtm
