/**
 * @file
 * Unit tests for the shift-engine extensions: head-position
 * management policies.
 */

#include <gtest/gtest.h>

#include "mem/rm_bank.hh"

namespace rtm
{
namespace
{

class BankFeatureFixture : public ::testing::Test
{
  protected:
    PaperCalibratedErrorModel model_;

    RmBank
    make(HeadPolicy policy)
    {
        RmBankConfig cfg;
        cfg.line_frames = 256;
        cfg.scheme = Scheme::SecdedPecc; // one-shot plans
        cfg.head_policy = policy;
        return RmBank(cfg, &model_, racetrackL3());
    }
};

TEST_F(BankFeatureFixture, ReturnHomeDriftsWhenIdle)
{
    RmBank bank = make(HeadPolicy::ReturnHome);
    // Seek index 0 -> offset 7 (7 steps from home).
    EXPECT_EQ(bank.accessFrame(0, 0).total_steps, 7);
    // Long idle: the head drifts back to 0, so re-accessing index 7
    // (offset 0) is free, while under Stay it would cost 7 steps.
    ShiftCost c = bank.accessFrame(7, 1000000);
    EXPECT_EQ(c.total_steps, 0);
    // The drift itself was charged off-path.
    EXPECT_GE(bank.stats().shift_steps, 14u);
}

TEST_F(BankFeatureFixture, StayKeepsThePosition)
{
    RmBank bank = make(HeadPolicy::Stay);
    bank.accessFrame(0, 0); // offset 7
    ShiftCost c = bank.accessFrame(7, 1000000); // offset 0
    EXPECT_EQ(c.total_steps, 7);
}

TEST_F(BankFeatureFixture, CenterRestsAtTheMidpoint)
{
    RmBank bank = make(HeadPolicy::Center);
    bank.accessFrame(0, 0); // offset 7
    // After a long idle the head sits at (8-1)/2 = 3; accessing
    // index 4 (offset 3) is then free.
    ShiftCost c = bank.accessFrame(4, 1000000);
    EXPECT_EQ(c.total_steps, 0);
}

TEST_F(BankFeatureFixture, NoDriftWithinShortGaps)
{
    RmBank bank = make(HeadPolicy::ReturnHome);
    bank.accessFrame(0, 0); // offset 7
    // A gap shorter than the drift time + hysteresis: still at 7.
    ShiftCost c = bank.accessFrame(0, 20);
    EXPECT_EQ(c.total_steps, 0); // no move needed: still aligned
}

TEST_F(BankFeatureFixture, DriftChargesReliability)
{
    RmBank stay = make(HeadPolicy::Stay);
    RmBank home = make(HeadPolicy::ReturnHome);
    for (Cycles t : {0u, 1000000u, 2000000u, 3000000u}) {
        stay.accessFrame(0, t);     // offset 7
        stay.accessFrame(7, t + 9); // offset 0
        home.accessFrame(0, t);
        home.accessFrame(7, t + 9);
    }
    // Return-home performs extra off-path shifts -> at least as
    // many expected failure opportunities.
    EXPECT_GE(home.stats().reliability.expectedDue(),
              stay.stats().reliability.expectedDue());
}

TEST(HeadPolicyNames, AreStable)
{
    EXPECT_STREQ(enumToken(HeadPolicy::Stay), "stay");
    EXPECT_STREQ(enumToken(HeadPolicy::ReturnHome),
                 "return-home");
    EXPECT_STREQ(enumToken(HeadPolicy::Center), "center");
}

} // namespace
} // namespace rtm
