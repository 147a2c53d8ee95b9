/**
 * @file
 * Model-validation tests: the closed-form reliability model must
 * agree with the functional protection stack under fault-injection
 * campaigns (the property `rtmsim run --spec
 * examples/specs/stress.json` reports as its reconciliation table), and
 * rebuild paths must fully reset ground-truth bookkeeping.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "codec/protected_stripe.hh"
#include "model/reliability.hh"

namespace rtm
{
namespace
{

TEST(Rebuild, InitializeIdealResetsGroundTruth)
{
    // After a detected-unrecoverable error the architecture rebuilds
    // the stripe; the rebuilt stripe is physically at home, so the
    // ground-truth position error must read zero.
    auto model = std::make_unique<ScriptedErrorModel>(
        std::vector<ShiftOutcome>{{+2, false}});
    PeccConfig cfg;
    cfg.num_segments = 2;
    cfg.seg_len = 8;
    cfg.correct = 1;
    cfg.variant = PeccVariant::Standard;
    ProtectedStripe ps(cfg, model.get(), Rng(1));
    ps.initializeIdeal();
    auto res = ps.shiftBy(3);
    ASSERT_TRUE(res.unrecoverable);
    ASSERT_NE(ps.positionError(), 0);
    ps.initializeIdeal();
    EXPECT_EQ(ps.positionError(), 0);
    EXPECT_EQ(ps.believedOffset(), 0);
    EXPECT_TRUE(ps.checkNow().ok());
    // And the stripe is fully operational again.
    for (int r = 0; r < 8; ++r)
        EXPECT_FALSE(ps.seekIndex(r).unrecoverable);
}

struct CampaignCase
{
    Scheme scheme;
    int correct;
    PeccVariant variant;
    double scale;
};

class CampaignValidation
    : public ::testing::TestWithParam<CampaignCase>
{
};

TEST_P(CampaignValidation, MeasuredMatchesAnalytic)
{
    const CampaignCase &c = GetParam();
    auto base = std::make_shared<PaperCalibratedErrorModel>();
    ScaledErrorModel model(base, c.scale);
    ReliabilityModel analytic(&model, c.scheme);

    PeccConfig cfg;
    cfg.num_segments = 2;
    cfg.seg_len = 8;
    cfg.correct = c.correct;
    cfg.variant = c.variant;
    ProtectedStripe stripe(cfg, &model, Rng(5));
    stripe.initializeIdeal();

    Rng dice(17);
    uint64_t corrected = 0, due = 0, silent = 0;
    double exp_corrected = 0.0, exp_due = 0.0, exp_sdc = 0.0;
    const int ops = 60000;
    for (int i = 0; i < ops; ++i) {
        int target = static_cast<int>(dice.uniformInt(8));
        int cur = 8 - 1 - stripe.believedOffset();
        int d = std::abs(target - cur);
        if (d == 0)
            continue;
        std::vector<int> parts =
            c.variant == PeccVariant::OverheadRegion
                ? std::vector<int>(static_cast<size_t>(d), 1)
                : std::vector<int>{d};
        ShiftReliability r = analytic.sequence(parts);
        exp_corrected += std::exp(r.log_corrected);
        exp_due += std::exp(r.log_due);
        exp_sdc += std::exp(r.log_sdc);

        auto res = stripe.seekIndex(target);
        if (res.unrecoverable) {
            ++due;
            stripe.initializeIdeal();
        } else if (res.corrected) {
            ++corrected;
        } else if (stripe.positionError() != 0) {
            ++silent;
            stripe.initializeIdeal();
        }
    }
    // Poisson-ish tolerance: 5 sigma plus a small absolute floor.
    auto close = [](uint64_t got, double want) {
        double tol = 5.0 * std::sqrt(want + 1.0) + 2.0;
        return std::abs(static_cast<double>(got) - want) <= tol;
    };
    EXPECT_TRUE(close(corrected, exp_corrected))
        << corrected << " vs " << exp_corrected;
    EXPECT_TRUE(close(due, exp_due)) << due << " vs " << exp_due;
    EXPECT_TRUE(close(silent, exp_sdc))
        << silent << " vs " << exp_sdc;
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, CampaignValidation,
    ::testing::Values(
        CampaignCase{Scheme::SecdedPecc, 1, PeccVariant::Standard,
                     300.0},
        CampaignCase{Scheme::SedPecc, 0, PeccVariant::Standard,
                     300.0},
        CampaignCase{Scheme::PeccO, 1, PeccVariant::OverheadRegion,
                     200.0},
        CampaignCase{Scheme::Baseline, 1, PeccVariant::None,
                     300.0}));

} // namespace
} // namespace rtm
