/**
 * @file
 * Unit tests for the STS two-stage timing model.
 */

#include <gtest/gtest.h>

#include "control/sts.hh"

namespace rtm
{
namespace
{

TEST(Sts, PaperLatencyAnchors)
{
    // Sec. 4.1: ceil(0.4/0.5 * N) + 2 cycles at 2 GHz -> 3 cycles
    // for 1 step, 8 cycles for 7 steps.
    StsTiming t;
    EXPECT_EQ(t.shiftCycles(1), 3u);
    EXPECT_EQ(t.shiftCycles(7), 8u);
}

TEST(Sts, FullLatencyLadder)
{
    StsTiming t;
    const Cycles expected[7] = {3, 4, 5, 6, 6, 7, 8};
    for (int n = 1; n <= 7; ++n)
        EXPECT_EQ(t.shiftCycles(n), expected[n - 1]) << "n=" << n;
}

TEST(Sts, PeccCheckAddsOneCycle)
{
    // Table 3(b) latencies include the 0.34 ns p-ECC check: 4 cycles
    // for 1 step, 9 for 7 steps.
    StsTiming t(kDefaultClockHz, 0.4e-9, 1.0e-9, 0.34e-9);
    EXPECT_EQ(t.shiftCycles(1), 4u);
    EXPECT_EQ(t.shiftCycles(4), 7u);
    EXPECT_EQ(t.shiftCycles(7), 9u);
}

TEST(Sts, Table3bSequenceLatencies)
{
    // The sequences of Table 3(b) and their latencies.
    StsTiming t(kDefaultClockHz, 0.4e-9, 1.0e-9, 0.34e-9);
    auto seq_latency = [&](std::initializer_list<int> parts) {
        Cycles total = 0;
        for (int p : parts)
            total += t.shiftCycles(p);
        return total;
    };
    EXPECT_EQ(seq_latency({7}), 9u);
    EXPECT_EQ(seq_latency({4, 3}), 13u);
    EXPECT_EQ(seq_latency({3, 2, 2}), 16u);
    EXPECT_EQ(seq_latency({2, 2, 2, 1}), 19u);
    EXPECT_EQ(seq_latency({2, 2, 1, 1, 1}), 22u);
    EXPECT_EQ(seq_latency({2, 1, 1, 1, 1, 1}), 25u);
    EXPECT_EQ(seq_latency({1, 1, 1, 1, 1, 1, 1}), 28u);
}

TEST(Sts, LongShiftsAmortiseStageTwo)
{
    // The paper's rule of thumb: one 7-step shift (8 cycles) beats
    // seven 1-step shifts (21 cycles) by more than 2x.
    StsTiming t;
    EXPECT_LT(t.shiftCycles(7) * 2, t.shiftCycles(1) * 7ull);
}

TEST(Sts, SecondsMatchCycles)
{
    StsTiming t;
    EXPECT_DOUBLE_EQ(t.shiftSeconds(1), 3 * 0.5e-9);
    EXPECT_DOUBLE_EQ(t.shiftSeconds(7), 8 * 0.5e-9);
}

TEST(Sts, CustomClock)
{
    StsTiming t(1e9); // 1 GHz: 1 ns cycles
    // stage1 0.4 ns -> 1 cycle; stage2 1 ns -> 1 cycle.
    EXPECT_EQ(t.shiftCycles(1), 2u);
    EXPECT_DOUBLE_EQ(t.clockHz(), 1e9);
}

/** The three-secondsToCycles formula the per-distance table holds. */
Cycles
referenceShiftCycles(double clock_hz, double stage1_per_step,
                     double stage2_pulse, double pecc_check, int steps)
{
    return secondsToCycles(stage1_per_step * steps, clock_hz) +
           secondsToCycles(stage2_pulse, clock_hz) +
           secondsToCycles(pecc_check, clock_hz);
}

TEST(Sts, TableMatchesFormulaBeyondItsReach)
{
    // Every clock / check width the other tests use, plus the
    // controller's 0.34 ns check: the table covers 1..K and longer
    // shifts fall back to the formula, so 1..2K crosses the seam.
    struct Clock
    {
        double hz, check;
    };
    for (const Clock c : {Clock{kDefaultClockHz, 0.0},
                          Clock{kDefaultClockHz, 0.34e-9},
                          Clock{1e9, 0.0}, Clock{1e9, 0.34e-9}}) {
        const StsTiming t(c.hz, 0.4e-9, 1.0e-9, c.check);
        for (int n = 1; n <= 2 * StsTiming::kTabulatedSteps; ++n)
            EXPECT_EQ(t.shiftCycles(n),
                      referenceShiftCycles(c.hz, 0.4e-9, 1.0e-9,
                                           c.check, n))
                << "clock " << c.hz << " check " << c.check << " n "
                << n;
    }
}

TEST(Sts, StagePulseWidths)
{
    StsTiming t;
    EXPECT_DOUBLE_EQ(t.stage1Seconds(5), 2.0e-9);
    EXPECT_DOUBLE_EQ(t.stage2Seconds(), 1.0e-9);
}

} // namespace
} // namespace rtm
