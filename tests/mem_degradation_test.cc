/**
 * @file
 * Graceful-degradation tests for the bank layer: DUE reports retire
 * stripe groups, frames remap onto healthy groups (capacity loss,
 * not a crash), and the per-group ledgers stay consistent.
 */

#include <gtest/gtest.h>

#include "mem/rm_bank.hh"
#include "model/tech.hh"

namespace rtm
{
namespace
{

RmBankConfig
smallBank(int budget = 2)
{
    RmBankConfig c;
    c.line_frames = 256; // 4 groups of 64 frames
    c.scheme = Scheme::PeccSAdaptive;
    c.group_retry_budget = budget;
    return c;
}

TEST(Degradation, GroupRetiresAfterBudgetExhausted)
{
    ScriptedErrorModel model;
    RmBank bank(smallBank(), &model, l3For(MemTech::Racetrack));
    ASSERT_EQ(bank.groupCount(), 4u);
    uint64_t frame_in_g1 = 64; // first frame of group 1
    EXPECT_FALSE(bank.reportUnrecoverable(frame_in_g1));
    EXPECT_FALSE(bank.isDegraded(1));
    EXPECT_TRUE(bank.reportUnrecoverable(frame_in_g1 + 5));
    EXPECT_TRUE(bank.isDegraded(1));
    EXPECT_EQ(bank.stats().due_reports, 2u);
    EXPECT_EQ(bank.stats().degraded_groups, 1u);
    // Frames of the retired group serve from the next healthy one.
    EXPECT_EQ(bank.servingGroupFor(frame_in_g1), 2u);
    EXPECT_DOUBLE_EQ(bank.degradedCapacityFraction(), 0.25);
    EXPECT_EQ(bank.ledgerViolation(), "");
}

TEST(Degradation, RemappedAccessesAreServedAndCounted)
{
    ScriptedErrorModel model;
    RmBank bank(smallBank(), &model, l3For(MemTech::Racetrack));
    bank.reportUnrecoverable(70);
    bank.reportUnrecoverable(70);
    ASSERT_TRUE(bank.isDegraded(1));
    Cycles now = 0;
    for (uint64_t f = 64; f < 128; f += 8) {
        ShiftCost c = bank.accessFrame(f, now);
        now += c.latency + 4;
    }
    EXPECT_EQ(bank.stats().remapped_accesses, 8u);
    EXPECT_EQ(bank.stats().accesses, 8u);
    // The serving group's slice carries the work.
    EXPECT_EQ(bank.groupStats(2).accesses, 8u);
    EXPECT_EQ(bank.groupStats(1).accesses, 0u);
    EXPECT_EQ(bank.ledgerViolation(), "");
}

TEST(Degradation, RemapChainsSkipLaterCasualties)
{
    ScriptedErrorModel model;
    RmBank bank(smallBank(1), &model, l3For(MemTech::Racetrack));
    EXPECT_TRUE(bank.reportUnrecoverable(64));  // group 1 -> 2
    EXPECT_TRUE(bank.reportUnrecoverable(128)); // group 2 -> 3
    EXPECT_EQ(bank.servingGroupFor(64), 3u);
    EXPECT_EQ(bank.servingGroupFor(128), 3u);
    EXPECT_DOUBLE_EQ(bank.degradedCapacityFraction(), 0.5);
    EXPECT_EQ(bank.ledgerViolation(), "");
}

TEST(Degradation, AllGroupsDegradedServesInPlace)
{
    ScriptedErrorModel model;
    RmBank bank(smallBank(1), &model, l3For(MemTech::Racetrack));
    for (uint64_t g = 0; g < 4; ++g)
        EXPECT_TRUE(bank.reportUnrecoverable(g * 64));
    EXPECT_EQ(bank.stats().degraded_groups, 4u);
    EXPECT_DOUBLE_EQ(bank.degradedCapacityFraction(), 1.0);
    // No healthy target left: frames serve from their home group
    // rather than crashing or looping.
    EXPECT_EQ(bank.servingGroupFor(0), 0u);
    EXPECT_EQ(bank.servingGroupFor(200), 3u);
    Cycles now = 0;
    for (uint64_t f = 0; f < 256; f += 32)
        now += bank.accessFrame(f, now).latency + 4;
    EXPECT_EQ(bank.stats().accesses, 8u);
    EXPECT_EQ(bank.ledgerViolation(), "");
}

TEST(Degradation, DisabledBudgetNeverRetires)
{
    ScriptedErrorModel model;
    RmBank bank(smallBank(0), &model, l3For(MemTech::Racetrack));
    for (int i = 0; i < 50; ++i)
        EXPECT_FALSE(bank.reportUnrecoverable(64));
    EXPECT_EQ(bank.stats().due_reports, 50u);
    EXPECT_EQ(bank.stats().degraded_groups, 0u);
    EXPECT_FALSE(bank.isDegraded(1));
    EXPECT_DOUBLE_EQ(bank.degradedCapacityFraction(), 0.0);
}

TEST(Degradation, ReportsToRetiredGroupsAreIdempotent)
{
    ScriptedErrorModel model;
    RmBank bank(smallBank(1), &model, l3For(MemTech::Racetrack));
    EXPECT_TRUE(bank.reportUnrecoverable(64));
    EXPECT_FALSE(bank.reportUnrecoverable(64));
    EXPECT_EQ(bank.stats().degraded_groups, 1u);
    EXPECT_EQ(bank.stats().due_reports, 2u);
}

TEST(Degradation, PerGroupLedgerSumsToBankAggregates)
{
    ScriptedErrorModel model;
    RmBankConfig cfg = smallBank();
    cfg.head_policy = HeadPolicy::ReturnHome; // exercise idle drift
    RmBank bank(cfg, &model, l3For(MemTech::Racetrack));
    Cycles now = 0;
    for (uint64_t i = 0; i < 200; ++i) {
        uint64_t frame = (i * 37) % 256;
        now += bank.accessFrame(frame, now).latency + 5000;
    }
    EXPECT_EQ(bank.ledgerViolation(), "");
    uint64_t sum = 0;
    for (uint64_t g = 0; g < bank.groupCount(); ++g)
        sum += bank.groupStats(g).shift_ops;
    EXPECT_EQ(sum, bank.stats().shift_ops);
}

} // namespace
} // namespace rtm
