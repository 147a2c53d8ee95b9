/**
 * @file
 * Batched SoA kernels for the Monte-Carlo position-error hot path.
 *
 * The scalar extractor walks one trial at a time: draw a gaussian,
 * advance the AR(1) deviation, branch into a tally. These kernels
 * restructure each shard into fixed-width trial batches held in
 * structure-of-arrays form: a noise plane filled per batch, a lane
 * array marched through the recurrence one *step* at a time (the
 * inner loop is branch-free over contiguous lanes, so it
 * auto-vectorises), and a dense per-shard histogram that whole
 * batches classify into before one IntTally flush.
 *
 * Two reproducibility tiers share the structure and differ only in
 * how the noise plane is filled:
 *
 *  - McTier::Exact uses Rng::fillGaussian - the same draws in the
 *    same order as the scalar path - and is bit-identical to it (the
 *    lane recurrence performs the identical operation sequence per
 *    trial; x86-64 baseline builds have no FMA contraction to
 *    reorder it).
 *  - McTier::Fast uses Rng::fillGaussianFast - batch-order draws
 *    through the branchless vecmath transforms - and is seed-pinned
 *    by its own golden digests: deterministic per seed across
 *    platforms, presets and RTM_THREADS, but not bit-equal to the
 *    exact tier (values agree to ~1e-11).
 */

#ifndef RTM_DEVICE_MC_KERNEL_HH
#define RTM_DEVICE_MC_KERNEL_HH

#include <cstdint>
#include <string>

#include "util/fields.hh"
#include "util/rng.hh"
#include "util/stats.hh"

namespace rtm
{

/** Reproducibility tier of the batched Monte-Carlo kernels. */
enum class McTier
{
    Exact, //!< bit-identical to the scalar reference path
    Fast   //!< batch-order draws, polynomial transforms
};

/** Spec/CLI tokens for the tiers. */
constexpr auto
enumTokens(McTier)
{
    return std::to_array<EnumToken<McTier>>({
        {McTier::Exact, "exact"},
        {McTier::Fast, "fast"},
    });
}

inline const char *
mcTierToken(McTier tier)
{
    return enumToken(tier);
}

/** Parse a tier token; false (and *tier untouched) when unknown. */
inline bool
mcTierFromToken(const std::string &token, McTier *tier)
{
    return enumFromToken(token, tier);
}

/** Trials per SoA batch (and the fast tier's shard granule). */
constexpr uint64_t kMcBatchTrials = 256;

/** Per-trial constants of the deviation recurrence (montecarlo.cc
 *  hoists these out of DeviceParams at construction). */
struct McKernelParams
{
    double resync_rho = 0.0;       //!< AR(1) survival per step
    double trial_jitter = 0.0;     //!< per-step noise std. dev.
    double trial_drift = 0.0;      //!< per-step deterministic drift
    double notch_half_width = 0.0; //!< in-notch classification bound
};

/**
 * Run `trials` batched trials of an n-step shift and accumulate the
 * Fig. 4 classification: step_counts[k] for in-notch outcomes,
 * middle_counts[floor(dev - w)] otherwise, and the running deviation
 * moments in trial order. Equivalent to `trials` iterations of the
 * scalar simulate-classify loop over `rng` (bit-identical in the
 * exact tier).
 */
void mcAccumulate(McTier tier, const McKernelParams &kp, int distance,
                  uint64_t trials, Rng &rng, IntTally &step_counts,
                  IntTally &middle_counts, RunningStats &deviation);

/**
 * Run `trials` batched (1-step, 7-step) trial pairs and accumulate
 * their deviation moments (the fitModel shard body). Draw order per
 * trial is 1-step first, then the seven 7-step draws, matching the
 * scalar interleave.
 */
void mcMoments(McTier tier, const McKernelParams &kp, uint64_t trials,
               Rng &rng, RunningStats &d1, RunningStats &d7);

} // namespace rtm

#endif // RTM_DEVICE_MC_KERNEL_HH
