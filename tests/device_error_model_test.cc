/**
 * @file
 * Unit tests for the position-error models (Table 2 calibration,
 * sampling, scaling and scripting).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "device/error_model.hh"
#include "device/fault_scenario.hh"

namespace rtm
{
namespace
{

TEST(PaperModel, Table2K1RatesExact)
{
    PaperCalibratedErrorModel m;
    const double expected[7] = {4.55e-5, 9.95e-5, 2.07e-4, 3.76e-4,
                                5.94e-4, 8.43e-4, 1.10e-3};
    for (int d = 1; d <= 7; ++d)
        EXPECT_DOUBLE_EQ(m.stepErrorRate(d, 1), expected[d - 1]);
}

TEST(PaperModel, Table2K2RatesExact)
{
    PaperCalibratedErrorModel m;
    const double expected[7] = {1.37e-21, 1.19e-20, 5.59e-20,
                                1.80e-19, 4.47e-19, 9.96e-18,
                                7.57e-15};
    for (int d = 1; d <= 7; ++d)
        EXPECT_DOUBLE_EQ(m.stepErrorRate(d, 2), expected[d - 1]);
}

TEST(PaperModel, RatesGrowWithDistance)
{
    PaperCalibratedErrorModel m;
    for (int d = 1; d < 20; ++d) {
        EXPECT_LE(m.stepErrorRate(d, 1), m.stepErrorRate(d + 1, 1))
            << "k=1 d=" << d;
        EXPECT_LE(m.stepErrorRate(d, 2), m.stepErrorRate(d + 1, 2))
            << "k=2 d=" << d;
    }
}

TEST(PaperModel, ExtrapolationIsContinuousAtSeven)
{
    PaperCalibratedErrorModel m;
    EXPECT_NEAR(m.stepErrorRate(8, 1) / m.stepErrorRate(7, 1),
                std::pow(8.0 / 7.0, 1.64), 1e-9);
    // Long-segment distances stay probabilities.
    EXPECT_LE(m.stepErrorRate(63, 1), 0.5);
    EXPECT_LE(m.stepErrorRate(127, 2), 0.5);
}

TEST(PaperModel, SignSplitMatchesPlusFraction)
{
    PaperCalibratedErrorModel m(0.8, 0.85);
    double plus = std::exp(m.logProbStep(1, +1));
    double minus = std::exp(m.logProbStep(1, -1));
    EXPECT_NEAR(plus / (plus + minus), 0.8, 1e-9);
    EXPECT_NEAR(plus + minus, m.stepErrorRate(1, 1), 1e-15);
}

TEST(PaperModel, LogProbSuccessComplementsErrors)
{
    PaperCalibratedErrorModel m;
    double success = std::exp(m.logProbSuccess(7));
    double err = std::exp(m.logProbAtLeast(7, 1));
    EXPECT_NEAR(success + err, 1.0, 1e-12);
}

TEST(PaperModel, AtLeastTwoIsTable2K2Plus)
{
    PaperCalibratedErrorModel m;
    double p2 = std::exp(m.logProbAtLeast(4, 2));
    EXPECT_NEAR(p2, 1.80e-19, 1e-21);
}

TEST(PaperModel, StopInMiddleOnlyBeforeSts)
{
    PaperCalibratedErrorModel m(0.8, 0.85);
    // Pre-STS mass in the (0, +1) interval feeds +1 errors.
    double mid = std::exp(m.logProbStopInMiddle(1, 0));
    EXPECT_NEAR(mid, 4.55e-5 * 0.8 * 0.85, 1e-9);
    // With middle fraction zero the interval is empty.
    PaperCalibratedErrorModel none(0.8, 0.0);
    EXPECT_EQ(none.logProbStopInMiddle(1, 0),
              -std::numeric_limits<double>::infinity());
}

TEST(PaperModel, SamplingMatchesRates)
{
    // Scale up so sampling statistics converge quickly (staying
    // under the model's 0.5 per-outcome probability cap).
    auto base = std::make_shared<PaperCalibratedErrorModel>();
    ScaledErrorModel m(base, 100.0);
    Rng rng(5);
    const int n = 200000;
    int plus1 = 0, minus1 = 0, other = 0;
    for (int i = 0; i < n; ++i) {
        ShiftOutcome o = m.sample(rng, 7, true);
        if (o.step_error == 1)
            ++plus1;
        else if (o.step_error == -1)
            ++minus1;
        else if (!o.ok())
            ++other;
    }
    double expected_p1 = 1.10e-3 * 100.0 * 0.8;
    EXPECT_NEAR(static_cast<double>(plus1) / n, expected_p1,
                0.1 * expected_p1);
    EXPECT_GT(plus1, minus1);
    EXPECT_EQ(other, 0); // k>=2 is ~1e-13 even after scaling
}

TEST(PaperModel, RawSamplingProducesStopInMiddle)
{
    auto base = std::make_shared<PaperCalibratedErrorModel>();
    ScaledErrorModel m(base, 100.0);
    Rng rng(6);
    const int n = 100000;
    int middles = 0, steps = 0;
    for (int i = 0; i < n; ++i) {
        ShiftOutcome o = m.sample(rng, 7, false);
        if (o.stop_in_middle)
            ++middles;
        else if (o.step_error != 0)
            ++steps;
    }
    // Pre-STS: 85% of the error mass rests in flat regions.
    EXPECT_GT(middles, steps);
    EXPECT_GT(middles, 0);
}

TEST(ZeroModel, NeverErrs)
{
    ZeroErrorModel m;
    Rng rng(1);
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(m.sample(rng, 7, true).ok());
    EXPECT_EQ(m.logProbStep(7, 1),
              -std::numeric_limits<double>::infinity());
    EXPECT_EQ(std::exp(m.logProbSuccess(7)), 1.0);
}

TEST(ScaledModel, ScalesLogRates)
{
    auto base = std::make_shared<PaperCalibratedErrorModel>();
    ScaledErrorModel m(base, 100.0);
    EXPECT_NEAR(std::exp(m.logProbStep(1, 1)),
                100.0 * std::exp(base->logProbStep(1, 1)), 1e-9);
}

TEST(ScaledModel, CapsAtHalf)
{
    auto base = std::make_shared<PaperCalibratedErrorModel>();
    ScaledErrorModel m(base, 1e9);
    EXPECT_LE(std::exp(m.logProbStep(7, 1)), 0.5 + 1e-12);
}

/**
 * The outcome walk sample() performed before outcome lists were
 * tabulated: one uniform draw, then a running sum of exp(log-prob)
 * over +/-1, +/-2, ... and, without STS, the stop-in-middle floors.
 */
ShiftOutcome
referenceWalk(const PositionErrorModel &m, Rng &rng, int distance,
              bool sts_enabled)
{
    ShiftOutcome out;
    double u = rng.uniform();
    double acc = 0.0;
    for (int mag = 1; mag <= m.maxStepError(); ++mag) {
        for (int sign : {+1, -1}) {
            double lp = sts_enabled
                            ? m.logProbStep(distance, sign * mag)
                            : m.logProbStepRaw(distance, sign * mag);
            acc += std::exp(lp);
            if (u < acc) {
                out.step_error = sign * mag;
                return out;
            }
        }
    }
    if (sts_enabled)
        return out;
    for (int floor_k = -m.maxStepError(); floor_k < m.maxStepError();
         ++floor_k) {
        acc += std::exp(m.logProbStopInMiddle(distance, floor_k));
        if (u < acc) {
            out.step_error = floor_k;
            out.stop_in_middle = true;
            return out;
        }
    }
    return out;
}

/** Forwards every rate to `inner` but samples by referenceWalk. */
class ReferenceWalkModel : public PositionErrorModel
{
  public:
    explicit ReferenceWalkModel(
        std::shared_ptr<const PositionErrorModel> inner)
        : inner_(std::move(inner))
    {
    }
    double logProbStep(int d, int k) const override
    {
        return inner_->logProbStep(d, k);
    }
    double logProbStopInMiddle(int d, int k) const override
    {
        return inner_->logProbStopInMiddle(d, k);
    }
    double logProbStepRaw(int d, int k) const override
    {
        return inner_->logProbStepRaw(d, k);
    }
    int maxStepError() const override
    {
        return inner_->maxStepError();
    }
    ShiftOutcome sample(Rng &rng, int d, bool sts) const override
    {
        return referenceWalk(*inner_, rng, d, sts);
    }

  private:
    std::shared_ptr<const PositionErrorModel> inner_;
};

TEST(ErrorModel, TabulatedSampleMatchesReferenceWalk)
{
    // Distances past kTabulatedDistance take the on-the-fly list.
    const int max_distance = ScaledErrorModel::kTabulatedDistance + 4;
    auto base = std::make_shared<PaperCalibratedErrorModel>();
    for (double factor : {1.0, 50.0, 2000.0, 1e6}) {
        ScaledErrorModel m(base, factor);
        for (bool sts : {true, false}) {
            Rng tab(0x5eed), ref(0x5eed);
            uint64_t errors = 0;
            for (int i = 0; i < 100000; ++i) {
                const int d = 1 + i % max_distance;
                ShiftOutcome a = m.sample(tab, d, sts);
                ShiftOutcome b = referenceWalk(m, ref, d, sts);
                ASSERT_EQ(a.step_error, b.step_error)
                    << "factor " << factor << " sts " << sts
                    << " draw " << i;
                ASSERT_EQ(a.stop_in_middle, b.stop_in_middle)
                    << "factor " << factor << " sts " << sts
                    << " draw " << i;
                errors += a.ok() ? 0 : 1;
            }
            // One uniform per sample on both paths.
            EXPECT_EQ(tab.next(), ref.next());
            if (factor > 1.0) {
                EXPECT_GT(errors, 0u) << "factor " << factor;
            }
        }
    }
    // The largest factor saturates every rate at the 0.5 clamp.
    ScaledErrorModel clamped(base, 1e6);
    EXPECT_EQ(clamped.logProbStep(1, 1), std::log(0.5));
    EXPECT_EQ(clamped.logProbStepRaw(1, -1), std::log(0.5));
    EXPECT_EQ(clamped.logProbStopInMiddle(1, 0), std::log(0.5));
}

TEST(ErrorModel, ScenarioLedgersMatchReferenceWalk)
{
    // Every standard regime over the same timeline of shift
    // requests, once on the tabulated model and once on a model
    // sampling by the reference walk: identical outcomes, ledgers
    // and rng streams. (The burst and skew wrappers rescale their
    // base through a ScaledErrorModel on both sides; the test above
    // pins that model's tables.)
    const int max_distance = ScaledErrorModel::kTabulatedDistance + 4;
    auto scaled = std::make_shared<ScaledErrorModel>(
        std::make_shared<PaperCalibratedErrorModel>(), 2000.0);
    auto reference = std::make_shared<ReferenceWalkModel>(scaled);
    for (const ScenarioSpec &spec : standardScenarios()) {
        auto tab = makeScenario(spec, scaled);
        auto ref = makeScenario(spec, reference);
        Rng timeline(99), rng_tab(7), rng_ref(7);
        for (int i = 0; i < 20000; ++i) {
            const int d = 1 + static_cast<int>(timeline.uniformInt(
                                  static_cast<uint64_t>(max_distance)));
            const bool sts = timeline.bernoulli(0.75);
            ShiftOutcome a = tab->sample(rng_tab, d, sts);
            ShiftOutcome b = ref->sample(rng_ref, d, sts);
            ASSERT_EQ(a.step_error, b.step_error)
                << spec.name << " shift " << i;
            ASSERT_EQ(a.stop_in_middle, b.stop_in_middle)
                << spec.name << " shift " << i;
        }
        EXPECT_EQ(rng_tab.next(), rng_ref.next()) << spec.name;
        const InjectionLedger &lt = tab->ledger();
        const InjectionLedger &lr = ref->ledger();
        EXPECT_EQ(lt.samples, lr.samples) << spec.name;
        EXPECT_EQ(lt.injected, lr.injected) << spec.name;
        EXPECT_EQ(lt.step_errors, lr.step_errors) << spec.name;
        EXPECT_EQ(lt.stop_in_middle, lr.stop_in_middle) << spec.name;
        EXPECT_GT(lt.injected, 0u) << spec.name;
    }
}

TEST(ScriptedModel, PlaysScriptThenSucceeds)
{
    ScriptedErrorModel m({{+1, false}, {0, true}, {-2, false}});
    Rng rng(1);
    EXPECT_EQ(m.sample(rng, 3, true).step_error, 1);
    EXPECT_TRUE(m.sample(rng, 3, true).stop_in_middle);
    EXPECT_EQ(m.sample(rng, 3, true).step_error, -2);
    EXPECT_TRUE(m.sample(rng, 3, true).ok());
    EXPECT_EQ(m.remaining(), 0u);
}

} // namespace
} // namespace rtm
