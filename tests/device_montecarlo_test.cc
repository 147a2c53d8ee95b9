/**
 * @file
 * Unit tests for the Monte-Carlo position-error extractor.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "device/fitted_model.hh"
#include "device/montecarlo.hh"
#include "util/parallel.hh"

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

TEST(MonteCarlo, ExactTierMatchesScalarReferenceBitwise)
{
    // The exact-tier contract: the batched kernel replays the
    // scalar path's draws and arithmetic exactly, so run() is
    // bit-identical to the frozen reference at any trial count —
    // including sub-batch, tail-remainder and prime counts.
    DeviceParams p;
    for (uint64_t trials : {uint64_t(1), uint64_t(200),
                            uint64_t(255), uint64_t(256),
                            uint64_t(4097), uint64_t(20011),
                            uint64_t(100003)}) {
        PositionErrorMonteCarlo batch(p, 5, McTier::Exact);
        PositionErrorMonteCarlo scalar(p, 5);
        expectPdfsIdentical(batch.run(7, trials),
                            scalar.runScalarReference(7, trials));
    }
}

TEST(MonteCarlo, ExactTierMatchesScalarReferenceAtDistanceOne)
{
    DeviceParams p;
    PositionErrorMonteCarlo batch(p, 9, McTier::Exact);
    PositionErrorMonteCarlo scalar(p, 9);
    expectPdfsIdentical(batch.run(1, 3001),
                        scalar.runScalarReference(1, 3001));
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
