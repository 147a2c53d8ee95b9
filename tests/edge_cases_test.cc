/**
 * @file
 * Edge-case coverage: boundary geometries, degenerate inputs, and
 * numerically extreme regimes across the stack.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "codec/protected_stripe.hh"
#include "control/controller.hh"
#include "device/fitted_model.hh"
#include "model/reliability.hh"
#include "util/prob.hh"

namespace rtm
{
namespace
{

TEST(EdgeLayout, MinimalTwoDomainSegment)
{
    // Lseg = 2 with SECDED: the smallest legal protected shape,
    // where p-ECC and p-ECC-O coincide in protection strength.
    for (PeccVariant v : {PeccVariant::Standard,
                          PeccVariant::OverheadRegion}) {
        PeccConfig c;
        c.num_segments = 16;
        c.seg_len = 2;
        c.correct = 1;
        c.variant = v;
        ScriptedErrorModel model;
        ProtectedStripe ps(c, &model, Rng(1));
        ps.initializeIdeal();
        for (int r = 0; r < 2; ++r) {
            auto res = ps.seekIndex(r);
            EXPECT_FALSE(res.detected);
            EXPECT_EQ(ps.positionError(), 0);
        }
    }
}

TEST(EdgeLayout, SingleSegmentStripe)
{
    // One segment = one port covering the whole data region: the
    // paper's ">100% overhead" worst case for Standard p-ECC.
    PeccConfig c;
    c.num_segments = 1;
    c.seg_len = 16;
    c.correct = 1;
    c.variant = PeccVariant::Standard;
    PeccLayout lay = computeLayout(c);
    EXPECT_GT(lay.storageOverhead(), 1.0);
    ScriptedErrorModel model;
    ProtectedStripe ps(c, &model, Rng(2));
    ps.initializeIdeal();
    ps.seekIndex(15);
    ps.seekIndex(0);
    EXPECT_EQ(ps.positionError(), 0);
}

TEST(EdgeLayout, HighStrengthCode)
{
    // m = 3: 4-bit de Bruijn windows, 16-phase code. Each scenario
    // gets its own stripe because correction shifts consume scripted
    // outcomes too.
    PeccConfig c;
    c.num_segments = 2;
    c.seg_len = 16;
    c.correct = 3;
    c.variant = PeccVariant::Standard;

    for (int e : {+3, -3}) {
        auto model = std::make_unique<ScriptedErrorModel>(
            std::vector<ShiftOutcome>{{e, false}});
        ProtectedStripe ps(c, model.get(), Rng(3));
        ps.initializeIdeal();
        auto r = ps.shiftBy(5);
        EXPECT_TRUE(r.corrected) << "e=" << e;
        EXPECT_EQ(r.inferred_error, e);
        EXPECT_EQ(ps.positionError(), 0);
    }
    {
        auto model = std::make_unique<ScriptedErrorModel>(
            std::vector<ShiftOutcome>{{+4, false}});
        ProtectedStripe ps(c, model.get(), Rng(3));
        ps.initializeIdeal();
        auto r = ps.shiftBy(5);
        EXPECT_TRUE(r.detected);
        EXPECT_TRUE(r.unrecoverable); // +/-4 is the m+1 alias
    }
}

TEST(EdgeControl, DistanceOnePlanning)
{
    PaperCalibratedErrorModel model;
    StsTiming timing(kDefaultClockHz, 0.4e-9, 1.0e-9, 0.34e-9);
    ShiftPlanner planner(&model, timing, 1, 1);
    const auto &front = planner.paretoFront(1);
    ASSERT_EQ(front.size(), 1u);
    EXPECT_EQ(front[0].parts, std::vector<int>{1});
    EXPECT_EQ(planner.safeDistance(1e15), 1);
}

TEST(EdgeControl, ControllerSameIndexTwice)
{
    ScriptedErrorModel model;
    PeccConfig c;
    c.num_segments = 2;
    c.seg_len = 8;
    c.correct = 1;
    c.variant = PeccVariant::Standard;
    ShiftController ctl(c, &model, ShiftPolicy::Adaptive, 83e6,
                        Rng(4));
    ctl.initialize();
    ctl.read(0, 3, 0);
    uint64_t ops = ctl.stats().shift_ops;
    for (int i = 0; i < 5; ++i)
        ctl.read(1, 3, 100 * (i + 1));
    EXPECT_EQ(ctl.stats().shift_ops, ops); // no movement needed
}

TEST(EdgeReliability, ZeroDistanceIsPerfect)
{
    PaperCalibratedErrorModel model;
    ReliabilityModel rel(&model, Scheme::SecdedPecc);
    ShiftReliability r = rel.shiftOp(0);
    EXPECT_EQ(r.log_sdc, -std::numeric_limits<double>::infinity());
    EXPECT_EQ(r.log_due, -std::numeric_limits<double>::infinity());
    ShiftReliability seq = rel.sequence({});
    EXPECT_EQ(seq.log_due,
              -std::numeric_limits<double>::infinity());
}

TEST(EdgeReliability, ExtremeDistancesStayProbabilities)
{
    PaperCalibratedErrorModel model;
    for (int d : {50, 100, 500}) {
        double p1 = model.stepErrorRate(d, 1);
        double p2 = model.stepErrorRate(d, 2);
        EXPECT_GT(p1, 0.0);
        EXPECT_LE(p1, 0.5);
        EXPECT_LE(p2, 0.5);
    }
}

TEST(EdgeFitted, TinySigmaKeepsLogTailsFinite)
{
    FittedModelParams p;
    p.sigma_step = 1e-4; // absurdly precise device
    FittedErrorModel m(p);
    double lp = m.logProbStep(1, 1);
    EXPECT_TRUE(std::isfinite(lp) ||
                lp == -std::numeric_limits<double>::infinity());
    // With sigma this small the +-1 band is hundreds of sigmas out:
    // far below any physical rate, but never NaN.
    EXPECT_FALSE(std::isnan(lp));
}

TEST(EdgeFitted, HugeSigmaSaturates)
{
    FittedModelParams p;
    p.sigma_step = 5.0; // hopeless device
    FittedErrorModel m(p);
    // The +-1 band alone absorbs a large share of shifts; note that
    // logProbSuccess only complements errors up to maxStepError(),
    // so with sigma this large it still over-reports "success"
    // (mass beyond +-3 is out of the enumerated range).
    double p1 = std::exp(m.logProbStep(1, 1)) +
                std::exp(m.logProbStep(1, -1));
    EXPECT_GT(p1, 0.05);
    double success = std::exp(m.logProbSuccess(1));
    EXPECT_LT(success, 0.75);
    EXPECT_GE(success, 0.0);
}

TEST(EdgeProb, LogAnyOfExtremes)
{
    // Tiny per-event probability, astronomical counts.
    double lp = std::log(1e-20);
    EXPECT_NEAR(std::exp(logAnyOf(lp, 1e10)), 1e-10, 1e-13);
    // Count of one is the identity.
    EXPECT_NEAR(logAnyOf(lp, 1.0), lp, 1e-6);
}

TEST(EdgeStripe, SingleSlotWire)
{
    ScriptedErrorModel model;
    std::vector<Port> ports = {{0, PortKind::ReadWrite}};
    RacetrackStripe s(1, ports, &model, Rng(5));
    s.poke(0, Bit::One);
    EXPECT_EQ(s.read(0), Bit::One);
    s.shift(1); // the single domain falls off
    EXPECT_EQ(s.peek(0), Bit::X);
}

TEST(EdgeCyclic, LargeWindowDecode)
{
    CyclicCode code(8); // 256-phase code
    EXPECT_EQ(code.period(), 256);
    DecodeResult r = code.decode(10, 17, 7);
    EXPECT_TRUE(r.valid);
    EXPECT_TRUE(r.correctable);
    EXPECT_EQ(r.step_error, 7);
}

} // namespace
} // namespace rtm
