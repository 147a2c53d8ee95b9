/**
 * @file
 * Unit tests for the program-and-test p-ECC initialisation
 * (paper Sec. 4.3).
 */

#include <gtest/gtest.h>

#include <memory>

#include <cmath>

#include "codec/init.hh"

namespace rtm
{
namespace
{

PeccConfig
defaultConfig()
{
    PeccConfig c;
    c.num_segments = 8;
    c.seg_len = 8;
    c.correct = 1;
    c.variant = PeccVariant::Standard;
    return c;
}

TEST(Init, CleanDeviceInitialisesFirstTry)
{
    ScriptedErrorModel model;
    ProtectedStripe ps(defaultConfig(), &model, Rng(1));
    PeccInitializer init(1);
    InitResult r = init.run(ps);
    EXPECT_TRUE(r.success);
    EXPECT_EQ(r.restarts, 0);
    EXPECT_GT(r.shift_steps, 0u);
    EXPECT_GT(r.cycles, 0u);
    // Stripe is usable immediately after initialisation.
    EXPECT_TRUE(ps.checkNow().ok());
    EXPECT_EQ(ps.positionError(), 0);
}

TEST(Init, MoreRoundsCostMoreCycles)
{
    ScriptedErrorModel model;
    ProtectedStripe a(defaultConfig(), &model, Rng(2));
    ProtectedStripe b(defaultConfig(), &model, Rng(2));
    InitResult r1 = PeccInitializer(1).run(a);
    InitResult r3 = PeccInitializer(3).run(b);
    EXPECT_TRUE(r1.success);
    EXPECT_TRUE(r3.success);
    EXPECT_GT(r3.cycles, 2 * r1.cycles);
}

TEST(Init, FaultyDeviceRestartsButConverges)
{
    auto base = std::make_shared<PaperCalibratedErrorModel>();
    // ~4.5% per-step error rate: each ~25-step verification pass has
    // ~2/3 odds of hitting an error, so 10 seeds restart many times
    // yet all converge.
    ScaledErrorModel model(base, 1000.0);
    int restarts = 0;
    int successes = 0;
    for (uint64_t seed = 1; seed <= 10; ++seed) {
        ProtectedStripe ps(defaultConfig(), &model, Rng(seed));
        InitResult r = PeccInitializer(1).run(ps);
        successes += r.success;
        restarts += r.restarts;
    }
    EXPECT_EQ(successes, 10);
    EXPECT_GT(restarts, 0);
}

TEST(Init, AnalysisResidualShrinksWithRounds)
{
    PaperCalibratedErrorModel model;
    PeccInitializer one(1), three(3);
    InitAnalysis a1 = one.analyze(defaultConfig(), model);
    InitAnalysis a3 = three.analyze(defaultConfig(), model);
    EXPECT_LT(a3.log_residual_error, a1.log_residual_error);
    EXPECT_GT(a3.expected_cycles, a1.expected_cycles);
}

TEST(Init, PaperAnchorsOrderOfMagnitude)
{
    // Sec. 4.3: for the default stripe, one iteration leaves the
    // residual mis-programming probability below 1e-100 and costs
    // on the order of 1200 cycles.
    PaperCalibratedErrorModel model;
    InitAnalysis a = PeccInitializer(1).analyze(defaultConfig(),
                                                model);
    EXPECT_LT(a.log_residual_error, std::log(1e-20));
    EXPECT_GT(a.expected_cycles, 50u);
    EXPECT_LT(a.expected_cycles, 5000u);
}

TEST(Init, MemoryInitTimeScalesWithWaves)
{
    PaperCalibratedErrorModel model;
    PeccInitializer init(1);
    // Sec. 4.3: a 128 MB memory initialises in < 20 ms. 128 MB /
    // 64 data bits per stripe = 16M stripes; the paper implies wide
    // parallelism (per-subarray initialisers).
    uint64_t stripes = (128ull << 20) * 8 / 64;
    double t_wide = init.memoryInitSeconds(defaultConfig(), model,
                                           stripes, stripes / 64);
    EXPECT_LT(t_wide, 20e-3);
    double t_half = init.memoryInitSeconds(defaultConfig(), model,
                                           stripes, stripes / 128);
    EXPECT_NEAR(t_half / t_wide, 2.0, 0.05);
}

} // namespace
} // namespace rtm
