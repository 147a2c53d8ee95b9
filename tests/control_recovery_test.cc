/**
 * @file
 * End-to-end tests of the controller's bounded recovery ladder:
 * inject -> detect -> retry / STS stage-2 realign / scrub -> counters
 * reconcile, including the retry-budget-exhausted -> DUE path.
 */

#include <gtest/gtest.h>

#include <memory>

#include "control/controller.hh"
#include "device/fault_scenario.hh"

namespace rtm
{
namespace
{

PeccConfig
secdedConfig()
{
    PeccConfig c;
    c.num_segments = 2;
    c.seg_len = 8;
    c.correct = 1;
    c.variant = PeccVariant::Standard;
    return c;
}

RecoveryConfig
fullLadder()
{
    RecoveryConfig r;
    r.retry_budget = 1;
    r.sts_realign = true;
    r.allow_scrub = true;
    return r;
}

TEST(Recovery, RetryRungRecoversAfterInlineRoundsExhaust)
{
    // The shift lands +1 off; every in-line counter-shift overshoots
    // by one more step, so the bounded in-line rounds ping-pong and
    // exhaust. The ladder's verify-and-retry then converges (the
    // script runs dry and shifts become clean).
    ScriptedErrorModel model({{1, false},
                             {1, false},
                             {1, false},
                             {1, false},
                             {1, false}});
    ShiftController ctl(secdedConfig(), &model,
                        ShiftPolicy::Unconstrained, 83e6, Rng(1),
                        kDefaultSafeMttfSeconds, fullLadder());
    ctl.initialize();
    AccessResult r = ctl.read(0, 3, 0);
    EXPECT_FALSE(r.due);
    EXPECT_TRUE(r.position_ok);
    const ControllerStats &s = ctl.stats();
    EXPECT_EQ(s.detected_errors, 1u);
    EXPECT_EQ(s.retry_attempts, 1u);
    EXPECT_EQ(s.recovered_retry, 1u);
    EXPECT_EQ(s.sts_realigns, 0u);
    EXPECT_EQ(s.scrubs, 0u);
    EXPECT_EQ(s.unrecoverable, 0u);
    EXPECT_GT(s.recovery_cycles, 0u);
    EXPECT_GE(s.busy_cycles, s.recovery_cycles);
    EXPECT_EQ(controllerLedgerViolation(s), "");
}

TEST(Recovery, StopInMiddleRealignsThroughStageTwo)
{
    // Stop-in-middle: walls stranded in the flat region, the code
    // window reads undefined, so the decode is uncorrectable and
    // rung-1 retries cannot help. The STS stage-2 pulse walks the
    // walls into the next notch; the follow-up verify sees a clean
    // +1 out-of-step and corrects it.
    ScriptedErrorModel model({{0, true}});
    ShiftController ctl(secdedConfig(), &model,
                        ShiftPolicy::Unconstrained, 83e6, Rng(2),
                        kDefaultSafeMttfSeconds, fullLadder());
    ctl.initialize();
    AccessResult r = ctl.read(0, 3, 0);
    EXPECT_FALSE(r.due);
    EXPECT_TRUE(r.position_ok);
    const ControllerStats &s = ctl.stats();
    EXPECT_EQ(s.detected_errors, 1u);
    EXPECT_EQ(s.retry_attempts, 1u);
    EXPECT_EQ(s.recovered_retry, 0u);
    EXPECT_EQ(s.sts_realigns, 1u);
    EXPECT_EQ(s.recovered_realign, 1u);
    EXPECT_EQ(s.scrubs, 0u);
    EXPECT_EQ(s.unrecoverable, 0u);
    EXPECT_EQ(ctl.stripe().positionError(), 0);
    EXPECT_EQ(controllerLedgerViolation(s), "");
}

TEST(Recovery, ScrubRungRebuildsAndDataSurvives)
{
    // A +2 error is detected but uncorrectable at m=1; retries and
    // the stage-2 pulse cannot fix a pinned out-of-step error, so
    // the ladder falls through to the scrub, which rebuilds the
    // stripe at home alignment. The re-planned seek then completes
    // and the write lands; a later read returns it.
    ScriptedErrorModel model({{2, false}});
    ShiftController ctl(secdedConfig(), &model,
                        ShiftPolicy::Unconstrained, 83e6, Rng(3),
                        kDefaultSafeMttfSeconds, fullLadder());
    ctl.initialize();
    AccessResult w = ctl.write(0, 3, Bit::One, 0);
    EXPECT_FALSE(w.due);
    EXPECT_TRUE(w.position_ok);
    const ControllerStats &s = ctl.stats();
    EXPECT_EQ(s.detected_errors, 1u);
    EXPECT_EQ(s.scrubs, 1u);
    EXPECT_EQ(s.recovered_scrub, 1u);
    EXPECT_EQ(s.unrecoverable, 0u);
    EXPECT_EQ(controllerLedgerViolation(s), "");
    EXPECT_EQ(ctl.read(0, 3, 100).value, Bit::One);
}

TEST(Recovery, BudgetExhaustedReportsDue)
{
    // Same +2 uncorrectable error, but with the realign and scrub
    // rungs disabled the ladder runs out after its retry budget and
    // the episode must surface as a DUE.
    ScriptedErrorModel model({{2, false}});
    RecoveryConfig cfg;
    cfg.retry_budget = 2;
    cfg.sts_realign = false;
    cfg.allow_scrub = false;
    ShiftController ctl(secdedConfig(), &model,
                        ShiftPolicy::Unconstrained, 83e6, Rng(4),
                        kDefaultSafeMttfSeconds, cfg);
    ctl.initialize();
    AccessResult r = ctl.read(0, 3, 0);
    EXPECT_TRUE(r.due);
    EXPECT_FALSE(r.position_ok);
    const ControllerStats &s = ctl.stats();
    EXPECT_EQ(s.retry_attempts, 2u);
    EXPECT_EQ(s.recovered_retry, 0u);
    EXPECT_EQ(s.unrecoverable, 1u);
    EXPECT_EQ(controllerLedgerViolation(s), "");
}

TEST(Recovery, PersistentlyStuckStripeEndsInDueNotALoop)
{
    // A stuck stripe eats one step of every drive, so corrections
    // are no-ops: in-line rounds exhaust, retry and realign fail,
    // and only the scrub (a poke-path rebuild) restores alignment.
    // But the re-planned seek hits the same dead notch, so the
    // replan budget bounds the episode and the access ends in a
    // reported DUE instead of an unbounded retry loop.
    auto zero = std::make_shared<ScriptedErrorModel>();
    ScenarioSpec spec;
    spec.kind = ScenarioKind::StuckStripe;
    spec.stuck_after = 0;
    spec.stuck_len = 1000000;
    FaultScenario stuck(spec, zero);
    ShiftController ctl(secdedConfig(), &stuck,
                        ShiftPolicy::Unconstrained, 83e6, Rng(5),
                        kDefaultSafeMttfSeconds, fullLadder());
    ctl.initialize();
    AccessResult r = ctl.read(0, 3, 0);
    EXPECT_TRUE(r.due);
    const ControllerStats &s = ctl.stats();
    // max_replans = 2: three failed episodes, three scrubs, the last
    // recovery re-classified as the DUE.
    EXPECT_EQ(s.scrubs, 3u);
    EXPECT_EQ(s.recovered_scrub, 2u);
    EXPECT_EQ(s.unrecoverable, 1u);
    EXPECT_EQ(s.detected_errors, 3u);
    EXPECT_EQ(controllerLedgerViolation(s), "");
    EXPECT_GT(stuck.ledger().injected, 0u);
}

TEST(Recovery, DefaultConfigKeepsLegacyImmediateDue)
{
    // RecoveryConfig default (budget 0) must preserve the historical
    // contract: an uncorrectable detection is an immediate DUE with
    // no ladder activity.
    ScriptedErrorModel model({{2, false}});
    ShiftController ctl(secdedConfig(), &model,
                        ShiftPolicy::Unconstrained, 83e6, Rng(6));
    ctl.initialize();
    AccessResult r = ctl.read(0, 3, 0);
    EXPECT_TRUE(r.due);
    const ControllerStats &s = ctl.stats();
    EXPECT_EQ(s.retry_attempts, 0u);
    EXPECT_EQ(s.sts_realigns, 0u);
    EXPECT_EQ(s.scrubs, 0u);
    EXPECT_EQ(s.recovery_cycles, 0u);
    EXPECT_EQ(s.unrecoverable, 1u);
    EXPECT_EQ(controllerLedgerViolation(s), "");
}

TEST(Recovery, StatsMergeSumsEveryLadderField)
{
    ControllerStats a, b;
    a.detected_errors = 3;
    a.recovered_retry = 1;
    a.recovery_cycles = 40;
    b.detected_errors = 2;
    b.recovered_scrub = 2;
    b.scrubs = 2;
    b.recovery_cycles = 60;
    a.merge(b);
    EXPECT_EQ(a.detected_errors, 5u);
    EXPECT_EQ(a.recovered_retry, 1u);
    EXPECT_EQ(a.recovered_scrub, 2u);
    EXPECT_EQ(a.scrubs, 2u);
    EXPECT_EQ(a.recovery_cycles, 100u);
}

TEST(Recovery, LedgerCheckerFlagsMismatches)
{
    ControllerStats s;
    s.detected_errors = 2;
    s.corrected_errors = 1;
    EXPECT_NE(controllerLedgerViolation(s), "");
    s.unrecoverable = 1;
    EXPECT_EQ(controllerLedgerViolation(s), "");
    s.recovered_scrub = 1;
    s.detected_errors = 3;
    EXPECT_NE(controllerLedgerViolation(s), ""); // scrubs == 0
    s.scrubs = 1;
    EXPECT_EQ(controllerLedgerViolation(s), "");
}

} // namespace
} // namespace rtm
