/**
 * @file
 * Unit tests for the Monte-Carlo position-error extractor.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "device/fitted_model.hh"
#include "device/montecarlo.hh"
#include "util/hash.hh"
#include "util/parallel.hh"
#include "util/rng.hh"

namespace rtm
{
namespace
{

TEST(MonteCarlo, StepJitterIsSmallAndPositive)
{
    DeviceParams p;
    PositionErrorMonteCarlo mc(p);
    double j = mc.stepJitter();
    EXPECT_GT(j, 0.001);
    EXPECT_LT(j, 0.2);
}

TEST(MonteCarlo, ResyncRhoInRange)
{
    DeviceParams p;
    PositionErrorMonteCarlo mc(p);
    EXPECT_GT(mc.resyncRho(), 0.0);
    EXPECT_LT(mc.resyncRho(), 1.0);
}

TEST(MonteCarlo, MostTrialsSucceed)
{
    DeviceParams p;
    PositionErrorMonteCarlo mc(p, 1);
    ErrorPdf pdf = mc.run(1, 20000);
    EXPECT_EQ(pdf.trials, 20000u);
    EXPECT_GT(pdf.stepProbability(0), 0.99);
}

TEST(MonteCarlo, DeviationMomentsGrowWithDistance)
{
    DeviceParams p;
    PositionErrorMonteCarlo mc(p, 2);
    ErrorPdf d1 = mc.run(1, 20000);
    ErrorPdf d7 = mc.run(7, 20000);
    EXPECT_GT(d7.deviation.stddev(), d1.deviation.stddev());
    // Sub-sqrt growth thanks to notch re-synchronisation.
    EXPECT_LT(d7.deviation.stddev() / d1.deviation.stddev(),
              std::sqrt(7.0));
}

TEST(MonteCarlo, OverdriveBiasesDeviationPositive)
{
    DeviceParams p;
    PositionErrorMonteCarlo mc(p, 3);
    ErrorPdf pdf = mc.run(4, 20000);
    EXPECT_GT(pdf.deviation.mean(), 0.0);
}

TEST(MonteCarlo, ClassificationPartitionsTrials)
{
    DeviceParams p;
    PositionErrorMonteCarlo mc(p, 4);
    ErrorPdf pdf = mc.run(7, 10000);
    uint64_t steps = 0, mids = 0;
    for (const auto &[k, c] : pdf.step_counts.entries())
        steps += c;
    for (const auto &[k, c] : pdf.middle_counts.entries())
        mids += c;
    EXPECT_EQ(steps + mids, pdf.trials);
}

TEST(MonteCarlo, FittedModelReflectsMeasuredMoments)
{
    DeviceParams p;
    PositionErrorMonteCarlo mc(p, 5);
    FittedErrorModel fit = mc.fitModel(50000);
    // The fitted sigma_step must be close to the direct 1-step
    // deviation spread.
    PositionErrorMonteCarlo mc2(p, 6);
    ErrorPdf d1 = mc2.run(1, 50000);
    EXPECT_NEAR(fit.params().sigma_step, d1.deviation.stddev(),
                0.1 * d1.deviation.stddev());
    EXPECT_GT(fit.params().resync_rho, 0.0);
    EXPECT_LT(fit.params().resync_rho, 1.0);
    EXPECT_NEAR(fit.params().notch_half_width,
                0.5 * 45.0 / 195.0, 1e-6);
}

TEST(MonteCarlo, ErrorPdfProbabilitiesDeriveFromTallies)
{
    // Regression: probabilities used to divide by the separately
    // stored `trials` field, which could drift from the tallies
    // after a merge. They now derive from the tally totals.
    ErrorPdf pdf;
    pdf.distance = 1;
    pdf.step_counts.add(0, 90);
    pdf.step_counts.add(1, 6);
    pdf.middle_counts.add(0, 4);
    pdf.trials = 12345; // deliberately wrong
    EXPECT_EQ(pdf.tallyTrials(), 100u);
    EXPECT_DOUBLE_EQ(pdf.stepProbability(0), 0.90);
    EXPECT_DOUBLE_EQ(pdf.stepProbability(1), 0.06);
    EXPECT_DOUBLE_EQ(pdf.middleProbability(0), 0.04);
}

TEST(MonteCarlo, ErrorPdfMergeCombinesShards)
{
    DeviceParams p;
    PositionErrorMonteCarlo mc(p, 8);
    ErrorPdf a = mc.run(4, 8000);
    ErrorPdf b = mc.run(4, 4000);
    ErrorPdf sum = a;
    sum.merge(b);
    EXPECT_EQ(sum.trials, 12000u);
    EXPECT_EQ(sum.tallyTrials(), 12000u);
    EXPECT_EQ(sum.distance, 4);
    EXPECT_EQ(sum.step_counts.count(0),
              a.step_counts.count(0) + b.step_counts.count(0));
    EXPECT_EQ(sum.deviation.count(), 12000u);
    // Merging into a default-constructed accumulator adopts the
    // shard's distance (the map-reduce identity case).
    ErrorPdf acc;
    acc.merge(a);
    EXPECT_EQ(acc.distance, 4);
    EXPECT_EQ(acc.trials, a.trials);
}

TEST(MonteCarlo, StepJitterCacheMatchesRecompute)
{
    DeviceParams p;
    PositionErrorMonteCarlo mc(p);
    EXPECT_DOUBLE_EQ(mc.stepJitter(), mc.computeStepJitter());
}

TEST(MonteCarlo, DeterministicGivenSeed)
{
    DeviceParams p;
    PositionErrorMonteCarlo a(p, 77), b(p, 77);
    ErrorPdf pa = a.run(3, 5000);
    ErrorPdf pb = b.run(3, 5000);
    EXPECT_DOUBLE_EQ(pa.deviation.mean(), pb.deviation.mean());
    EXPECT_EQ(pa.step_counts.entries(), pb.step_counts.entries());
}

void
expectPdfsIdentical(const ErrorPdf &a, const ErrorPdf &b)
{
    EXPECT_EQ(a.distance, b.distance);
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.step_counts.entries(), b.step_counts.entries());
    EXPECT_EQ(a.middle_counts.entries(),
              b.middle_counts.entries());
    EXPECT_EQ(a.deviation.count(), b.deviation.count());
    EXPECT_EQ(a.deviation.mean(), b.deviation.mean());
    EXPECT_EQ(a.deviation.stddev(), b.deviation.stddev());
}

/**
 * The pre-batching scalar path, frozen as the exact tier's
 * reference: run()'s shard structure and per-shard RNG forks, but
 * each shard walks one trial at a time through simulateDeviation()
 * and bins it into Fig. 4's classes (in-notch step k, or the
 * stop-in-middle interval above floor(dev - w)).
 */
ErrorPdf
scalarReference(const DeviceParams &p, uint64_t seed, int distance,
                uint64_t trials)
{
    PositionErrorMonteCarlo mc(p, seed);
    Rng root(seed);
    const double w = 0.5 * p.pinning_width / p.pitch();
    const size_t shards = shardCount(trials);
    ErrorPdf pdf;
    for (size_t s = 0; s < shards; ++s) {
        Rng rng = root.fork();
        ErrorPdf part;
        part.distance = distance;
        part.trials = shardSize(trials, shards, s);
        for (uint64_t i = 0; i < part.trials; ++i) {
            double dev = mc.simulateDeviation(distance, rng);
            double nearest = std::round(dev);
            if (std::abs(dev - nearest) <= w)
                part.step_counts.add(static_cast<int64_t>(nearest));
            else
                part.middle_counts.add(
                    static_cast<int64_t>(std::floor(dev - w)));
            part.deviation.add(dev);
        }
        pdf.merge(part);
    }
    pdf.distance = distance;
    return pdf;
}

std::string
pdfDigest(const ErrorPdf &pdf)
{
    Sha256 h;
    h.updateValue(static_cast<int32_t>(pdf.distance));
    h.updateValue(pdf.trials);
    for (const auto &kv : pdf.step_counts.entries()) {
        h.updateValue(kv.first);
        h.updateValue(kv.second);
    }
    for (const auto &kv : pdf.middle_counts.entries()) {
        h.updateValue(kv.first);
        h.updateValue(kv.second);
    }
    h.updateValue(pdf.deviation.count());
    h.updateValue(pdf.deviation.mean());
    h.updateValue(pdf.deviation.stddev());
    return h.hexDigest();
}

/**
 * Exact-tier run() digests (pdfDigest), captured when the scalar
 * reference still lived beside run() in src/device/montecarlo.cc and
 * both gave these values: distance 7 at seed 5 over sub-batch,
 * tail-remainder and prime trial counts, and distance 1 at seed 9.
 */
struct ExactPin
{
    int distance;
    uint64_t seed;
    uint64_t trials;
    const char *sha256;
};

const ExactPin kExactPins[] = {
    {7, 5, 1,
     "8710415a3e4d81f5c11970e86627e55feeca14b87ee96bc614d94a6dbefe9578"},
    {7, 5, 200,
     "f01e18c48f112d4a7ad613cce0086253daa8ee68e26de223e2764dd17c970160"},
    {7, 5, 255,
     "e95409c565be269af123910cae55c53c02d11bd322ff93f64fe2dea55db62efb"},
    {7, 5, 256,
     "1a3ab1c3457885636de28a3dd4ece0219e7933560fcc4ac97137ded01471e666"},
    {7, 5, 4097,
     "9df6c4524f321ccf11e30442c768fa3257b4dc1240a5df5e416fd5f3543828c3"},
    {7, 5, 20011,
     "bb5bf9b32007f31436452c7046ace47cd42810ea7e3bff71b795710acccd9dd7"},
    {7, 5, 100003,
     "1a00205792b55d36e6ef2790750fe1e7070ab9bff92d0886a308a5be4b27fdd5"},
    {1, 9, 3001,
     "34d25200a252c91136a3d868b37c00a0f361a7ac34535978cf944e6bf8488ba5"},
};

TEST(MonteCarlo, ExactTierMatchesScalarReferenceBitwise)
{
    // The exact-tier contract: the batched kernel replays the
    // scalar path's draws and arithmetic exactly, so run() is
    // bit-identical to the frozen reference at any trial count —
    // including sub-batch, tail-remainder and prime counts.
    DeviceParams p;
    for (const ExactPin &pin : kExactPins) {
        PositionErrorMonteCarlo batch(p, pin.seed, McTier::Exact);
        expectPdfsIdentical(
            batch.run(pin.distance, pin.trials),
            scalarReference(p, pin.seed, pin.distance, pin.trials));
    }
}

TEST(MonteCarlo, ExactTierMatchesPinnedDigests)
{
    DeviceParams p;
    for (const ExactPin &pin : kExactPins) {
        PositionErrorMonteCarlo batch(p, pin.seed, McTier::Exact);
        EXPECT_EQ(pdfDigest(batch.run(pin.distance, pin.trials)),
                  pin.sha256)
            << "distance " << pin.distance << ", trials "
            << pin.trials;
    }
}

TEST(MonteCarlo, FastTierIsBitStableAcrossThreadCounts)
{
    // The fast tier reorders draws but aligns its shards to the
    // batch granule, so the result is a pure function of (seed,
    // trials) whatever RTM_THREADS says.
    DeviceParams p;
    unsigned before = ThreadPool::global().threads();
    PositionErrorMonteCarlo a(p, 5, McTier::Fast);
    ThreadPool::setGlobalThreads(1);
    ErrorPdf pa = a.run(7, 50000);
    PositionErrorMonteCarlo b(p, 5, McTier::Fast);
    ThreadPool::setGlobalThreads(4);
    ErrorPdf pb = b.run(7, 50000);
    ThreadPool::setGlobalThreads(before);
    expectPdfsIdentical(pa, pb);
}

TEST(MonteCarlo, FastTierMomentsTrackExactTier)
{
    DeviceParams p;
    const uint64_t trials = 100000;
    PositionErrorMonteCarlo fast(p, 5, McTier::Fast);
    PositionErrorMonteCarlo exact(p, 5, McTier::Exact);
    ErrorPdf pf = fast.run(7, trials);
    ErrorPdf pe = exact.run(7, trials);
    double se = pe.deviation.stddev() /
                std::sqrt(static_cast<double>(trials));
    EXPECT_NEAR(pf.deviation.mean(), pe.deviation.mean(),
                8.0 * se);
    EXPECT_NEAR(pf.deviation.stddev(), pe.deviation.stddev(),
                0.05 * pe.deviation.stddev());
}

TEST(MonteCarlo, FitModelTiersAgree)
{
    // The fitted parameters are derived from sample moments, so the
    // tiers agree statistically; the exact tier is additionally
    // bit-deterministic given the seed.
    DeviceParams p;
    PositionErrorMonteCarlo a(p, 5, McTier::Exact);
    PositionErrorMonteCarlo b(p, 5, McTier::Exact);
    FittedErrorModel fa = a.fitModel(20000);
    FittedErrorModel fb = b.fitModel(20000);
    EXPECT_DOUBLE_EQ(fa.params().sigma_step,
                     fb.params().sigma_step);
    PositionErrorMonteCarlo c(p, 5, McTier::Fast);
    FittedErrorModel fc = c.fitModel(20000);
    EXPECT_NEAR(fc.params().sigma_step, fa.params().sigma_step,
                0.05 * fa.params().sigma_step);
}

TEST(MonteCarloDeath, MergePanicsOnDistanceMismatch)
{
    DeviceParams p;
    PositionErrorMonteCarlo mc(p, 8);
    ErrorPdf a = mc.run(4, 1000);
    ErrorPdf b = mc.run(5, 1000);
    EXPECT_DEATH(a.merge(b), "distance");
}

TEST(MonteCarloDeath, MergePanicsWhenTrialsOutOfSyncWithTallies)
{
    DeviceParams p;
    PositionErrorMonteCarlo mc(p, 8);
    ErrorPdf a = mc.run(4, 1000);
    ErrorPdf b = mc.run(4, 1000);
    // Corrupt the bookkeeping: the trials field no longer matches
    // the tally totals, which merge() must refuse to paper over.
    b.trials += 1;
    EXPECT_DEATH(a.merge(b), "out of sync");
    ErrorPdf c = mc.run(4, 1000);
    ErrorPdf d = mc.run(4, 1000);
    c.trials += 1;
    EXPECT_DEATH(c.merge(d), "out of sync");
}

} // namespace
} // namespace rtm
