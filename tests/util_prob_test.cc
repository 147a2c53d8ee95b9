/**
 * @file
 * Unit tests for the log-domain probability helpers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "util/prob.hh"

namespace rtm
{
namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(LogNormalTail, MatchesErfcInNormalRange)
{
    for (double x : {-3.0, -1.0, 0.0, 0.5, 1.0, 2.0, 5.0, 10.0}) {
        double direct = 0.5 * std::erfc(x / std::sqrt(2.0));
        EXPECT_NEAR(logNormalTail(x), std::log(direct),
                    1e-10 * std::abs(std::log(direct)) + 1e-12)
            << "x = " << x;
    }
}

TEST(LogNormalTail, QZeroIsHalf)
{
    EXPECT_NEAR(normalTail(0.0), 0.5, 1e-12);
}

TEST(LogNormalTail, DeepTailIsFiniteAndMonotonic)
{
    // erfc underflows near x ~ 38; the asymptotic branch must keep
    // producing finite, strictly decreasing log-probabilities.
    double prev = logNormalTail(20.0);
    for (double x = 25.0; x <= 200.0; x += 5.0) {
        double lp = logNormalTail(x);
        EXPECT_TRUE(std::isfinite(lp)) << "x = " << x;
        EXPECT_LT(lp, prev) << "x = " << x;
        prev = lp;
    }
    // Q(40) ~ 1.4e-350: check the magnitude via the classic bound
    // phi(x)/x * (1 - 1/x^2) < Q(x) < phi(x)/x.
    double x = 40.0;
    double upper = logNormalPdf(x) - std::log(x);
    EXPECT_LT(logNormalTail(x), upper + 1e-9);
    EXPECT_GT(logNormalTail(x), upper + std::log1p(-1.0 / (x * x)) -
                                    1e-9);
}

TEST(LogSumExp, BasicIdentities)
{
    EXPECT_NEAR(logSumExp(std::log(0.25), std::log(0.25)),
                std::log(0.5), 1e-12);
    EXPECT_DOUBLE_EQ(logSumExp(-kInf, -2.0), -2.0);
    EXPECT_DOUBLE_EQ(logSumExp(-2.0, -kInf), -2.0);
    // Extreme magnitude difference: the big term dominates exactly.
    EXPECT_DOUBLE_EQ(logSumExp(0.0, -800.0), 0.0);
}

TEST(LogDiffExp, BasicIdentities)
{
    EXPECT_NEAR(logDiffExp(std::log(0.75), std::log(0.25)),
                std::log(0.5), 1e-12);
    EXPECT_DOUBLE_EQ(logDiffExp(-1.5, -kInf), -1.5);
    EXPECT_EQ(logDiffExp(-2.0, -2.0), -kInf);
}

TEST(Log1mExp, CoversBothBranches)
{
    // Near zero (complement of a near-certain event).
    EXPECT_NEAR(log1mExp(-1e-10), std::log(1e-10), 1e-4);
    // Deeply negative (complement of a rare event ~ a itself).
    EXPECT_NEAR(log1mExp(-50.0), -std::exp(-50.0), 1e-30);
    EXPECT_EQ(log1mExp(0.0), -kInf);
}

TEST(LogAnyOf, SmallRateTimesCount)
{
    // P(any of n) ~ n*p for tiny p.
    double lp = std::log(1e-12);
    double any = std::exp(logAnyOf(lp, 1000.0));
    EXPECT_NEAR(any, 1e-9, 1e-12);
}

TEST(LogAnyOf, SaturatesAtOne)
{
    double lp = std::log(0.5);
    EXPECT_NEAR(std::exp(logAnyOf(lp, 1000.0)), 1.0, 1e-12);
    EXPECT_EQ(logAnyOf(lp, 0.0), -kInf);
}

TEST(MttfSeconds, InverseOfRateTimesProbability)
{
    // p = 1e-6, rate = 1e6 /s -> one failure per second.
    EXPECT_NEAR(mttfSeconds(std::log(1e-6), 1e6), 1.0, 1e-9);
    // Paper Fig. 1 anchor: p = 1e-19 at high intensity yields ~10y.
    double mttf = mttfSeconds(std::log(1e-19), 3.2e9);
    EXPECT_NEAR(mttf / kSecondsPerYear, 99.0, 1.0);
}

TEST(MttfSeconds, EdgeCases)
{
    EXPECT_EQ(mttfSeconds(-kInf, 1e9), kInf);
    EXPECT_EQ(mttfSeconds(std::log(0.5), 0.0), kInf);
    // Deep log-probabilities must not underflow to zero rates.
    double lp = -800.0; // e^-800 underflows a double
    EXPECT_TRUE(std::isinf(mttfSeconds(lp, 1e9)) ||
                mttfSeconds(lp, 1e9) > 1e300);
}

TEST(Fit, RoundTripAndPaperAnchor)
{
    // Paper Sec. 2.2: 11415 FIT == 10-year MTTF.
    double mttf = fitToMttfSeconds(11415.0);
    EXPECT_NEAR(mttf / kSecondsPerYear, 10.0, 0.01);
    EXPECT_NEAR(mttfSecondsToFit(mttf), 11415.0, 0.1);
}

TEST(LogNormalTailBatch, MatchesScalarBitwise)
{
    // The batched Gaussian tail is the exact-tier dependency of the
    // fitted model's table builder: every element must be
    // bit-identical to the scalar evaluation.
    std::vector<double> xs;
    for (int i = -80; i <= 80; ++i)
        xs.push_back(0.125 * i);
    xs.push_back(-kInf);
    xs.push_back(kInf);
    xs.push_back(0.0);
    xs.push_back(38.6); // deep-tail asymptotic branch
    std::vector<double> out(xs.size());
    logNormalTailBatch(xs.data(), out.data(), xs.size());
    for (size_t i = 0; i < xs.size(); ++i)
        ASSERT_EQ(out[i], logNormalTail(xs[i])) << "x=" << xs[i];
    // Zero-length and single-element calls are valid.
    logNormalTailBatch(xs.data(), out.data(), 0);
    logNormalTailBatch(xs.data(), out.data(), 1);
    EXPECT_EQ(out[0], logNormalTail(xs[0]));
}

} // namespace
} // namespace rtm
