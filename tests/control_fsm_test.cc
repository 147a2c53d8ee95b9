/**
 * @file
 * Unit tests for the cycle-level shift-controller FSM, including the
 * cross-validation against the analytic StsTiming latencies.
 */

#include <gtest/gtest.h>

#include "fsm.hh"

namespace rtm
{
namespace
{

StsTiming
peccTiming()
{
    return StsTiming(kDefaultClockHz, 0.4e-9, 1.0e-9, 0.34e-9);
}

TEST(Fsm, WalksTheStatesInOrder)
{
    ShiftFsm fsm(peccTiming());
    EXPECT_EQ(fsm.state(), FsmState::Idle);
    fsm.issue(1);
    EXPECT_EQ(fsm.state(), FsmState::Stage1);
    EXPECT_EQ(fsm.tick(), FsmState::Stage2); // 1-cycle stage 1
    EXPECT_EQ(fsm.tick(), FsmState::Stage2); // 2-cycle stage 2
    EXPECT_EQ(fsm.tick(), FsmState::Check);
    EXPECT_EQ(fsm.tick(), FsmState::Done);
    EXPECT_EQ(fsm.elapsed(), 4u);
}

TEST(Fsm, EmergentLatencyMatchesAnalyticModel)
{
    // The architectural latencies used throughout the evaluation
    // must be implementable by this datapath: FSM cycles == the
    // StsTiming closed form, for every distance.
    StsTiming timing = peccTiming();
    for (int steps = 1; steps <= 15; ++steps) {
        ShiftFsm fsm(timing);
        EXPECT_EQ(fsm.run(steps), timing.shiftCycles(steps))
            << "steps " << steps;
    }
}

TEST(Fsm, NoPeccSkipsTheCheckStage)
{
    StsTiming timing; // no check latency
    ShiftFsm fsm(timing, /*has_pecc=*/false);
    EXPECT_EQ(fsm.run(1), timing.shiftCycles(1));
    EXPECT_EQ(fsm.run(7), timing.shiftCycles(7));
    EXPECT_EQ(fsm.corrections(), 0);
}

TEST(Fsm, MismatchTriggersCorrectionMicroOp)
{
    StsTiming timing = peccTiming();
    ShiftFsm fsm(timing);
    fsm.issue(3);
    fsm.setCheckResult(true, +1);
    while (!fsm.done())
        fsm.tick();
    EXPECT_EQ(fsm.corrections(), 1);
    // Total = 3-step shift + 3-cycle correction logic (Table 5's
    // 1.34 ns) + 1-step counter-shift with its own check - exactly
    // what the behavioural ShiftController charges.
    EXPECT_EQ(fsm.elapsed(),
              timing.shiftCycles(3) + 3 + timing.shiftCycles(1));
}

TEST(Fsm, UncorrectableMismatchRetiresWithoutCorrection)
{
    ShiftFsm fsm(peccTiming());
    fsm.issue(2);
    fsm.setCheckResult(true, 0); // detected, direction unknown
    while (!fsm.done())
        fsm.tick();
    EXPECT_EQ(fsm.corrections(), 0);
}

TEST(Fsm, ReissueAfterDone)
{
    ShiftFsm fsm(peccTiming());
    EXPECT_EQ(fsm.run(2), peccTiming().shiftCycles(2));
    EXPECT_EQ(fsm.run(5), peccTiming().shiftCycles(5));
}

TEST(FsmDeathTest, IssueWhileBusyPanics)
{
    ShiftFsm fsm(peccTiming());
    fsm.issue(2);
    EXPECT_DEATH(fsm.issue(1), "busy");
}

TEST(FsmDeathTest, ZeroStepIssuePanics)
{
    ShiftFsm fsm(peccTiming());
    EXPECT_DEATH(fsm.issue(0), "at least one");
}

TEST(Fsm, TickInIdleIsInert)
{
    ShiftFsm fsm(peccTiming());
    EXPECT_EQ(fsm.tick(), FsmState::Idle);
    EXPECT_EQ(fsm.elapsed(), 0u);
}

TEST(Fsm, StateNames)
{
    EXPECT_STREQ(fsmStateName(FsmState::Stage1), "STAGE1");
    EXPECT_STREQ(fsmStateName(FsmState::Check), "CHECK");
    EXPECT_STREQ(fsmStateName(FsmState::Done), "DONE");
}

} // namespace
} // namespace rtm
