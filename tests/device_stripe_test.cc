/**
 * @file
 * Unit tests for the functional racetrack stripe (tape semantics,
 * ports, fault injection, data loss at wire ends).
 */

#include <gtest/gtest.h>

#include "device/stripe.hh"

namespace rtm
{
namespace
{

ScriptedErrorModel g_zero;

RacetrackStripe
makeStripe(int slots, const PositionErrorModel *model = &g_zero)
{
    std::vector<Port> ports = {{slots / 2, PortKind::ReadWrite},
                               {slots - 1, PortKind::ReadOnly}};
    return RacetrackStripe(slots, ports, model, Rng(1));
}

TEST(Bit, InvertAndChar)
{
    EXPECT_EQ(invert(Bit::Zero), Bit::One);
    EXPECT_EQ(invert(Bit::One), Bit::Zero);
    EXPECT_EQ(invert(Bit::X), Bit::X);
    EXPECT_EQ(bitChar(Bit::Zero), '0');
    EXPECT_EQ(bitChar(Bit::One), '1');
    EXPECT_EQ(bitChar(Bit::X), 'x');
}

TEST(Stripe, FreshDomainsAreUndefined)
{
    RacetrackStripe s = makeStripe(8);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(s.peek(i), Bit::X);
}

TEST(Stripe, PokePeekRoundTrip)
{
    RacetrackStripe s = makeStripe(8);
    s.poke(3, Bit::One);
    EXPECT_EQ(s.peek(3), Bit::One);
    EXPECT_EQ(s.peek(2), Bit::X);
}

TEST(Stripe, ShiftMovesContentRight)
{
    RacetrackStripe s = makeStripe(8);
    s.poke(2, Bit::One);
    s.poke(3, Bit::Zero);
    s.shift(2);
    EXPECT_EQ(s.peek(4), Bit::One);
    EXPECT_EQ(s.peek(5), Bit::Zero);
    // Entering domains are undefined.
    EXPECT_EQ(s.peek(0), Bit::X);
    EXPECT_EQ(s.peek(1), Bit::X);
    EXPECT_EQ(s.trueOffset(), 2);
}

TEST(Stripe, ShiftMovesContentLeft)
{
    RacetrackStripe s = makeStripe(8);
    s.poke(4, Bit::One);
    s.shift(-3);
    EXPECT_EQ(s.peek(1), Bit::One);
    EXPECT_EQ(s.peek(7), Bit::X);
    EXPECT_EQ(s.trueOffset(), -3);
}

TEST(Stripe, DataFallsOffTheEnds)
{
    RacetrackStripe s = makeStripe(4);
    s.poke(3, Bit::One);
    s.shift(1); // pushes slot 3 off the right end
    s.shift(-1);
    EXPECT_EQ(s.peek(3), Bit::X); // destroyed, not restored
}

TEST(Stripe, RoundTripPreservesInteriorData)
{
    RacetrackStripe s = makeStripe(16);
    for (int i = 4; i < 12; ++i)
        s.poke(i, i % 2 ? Bit::One : Bit::Zero);
    s.shift(3);
    s.shift(-3);
    for (int i = 4; i < 12; ++i)
        EXPECT_EQ(s.peek(i), i % 2 ? Bit::One : Bit::Zero) << i;
}

TEST(Stripe, ReadThroughPort)
{
    RacetrackStripe s = makeStripe(8);
    s.poke(4, Bit::One); // port 0 at slot 4
    EXPECT_EQ(s.read(0), Bit::One);
    s.poke(7, Bit::Zero); // port 1 at slot 7
    EXPECT_EQ(s.read(1), Bit::Zero);
}

TEST(Stripe, WriteThroughRwPort)
{
    RacetrackStripe s = makeStripe(8);
    EXPECT_TRUE(s.write(0, Bit::One));
    EXPECT_EQ(s.peek(4), Bit::One);
}

TEST(StripeDeathTest, WriteThroughReadOnlyPortPanics)
{
    RacetrackStripe s = makeStripe(8);
    EXPECT_DEATH(s.write(1, Bit::One), "read-only");
}

TEST(Stripe, InjectedOverShiftMovesExtra)
{
    ScriptedErrorModel model({{+1, false}});
    RacetrackStripe s = makeStripe(8, &model);
    s.poke(2, Bit::One);
    ShiftOutcome o = s.shift(1);
    EXPECT_EQ(o.step_error, 1);
    EXPECT_EQ(s.trueOffset(), 2);
    EXPECT_EQ(s.peek(4), Bit::One);
}

TEST(Stripe, InjectedErrorFollowsMotionDirection)
{
    // A "+1" outcome means one step beyond the requested distance,
    // in the direction of motion - for a left shift that is one
    // extra step left.
    ScriptedErrorModel model({{+1, false}});
    RacetrackStripe s = makeStripe(8, &model);
    s.poke(5, Bit::One);
    s.shift(-2);
    EXPECT_EQ(s.trueOffset(), -3);
    EXPECT_EQ(s.peek(2), Bit::One);
}

TEST(Stripe, StopInMiddleBlindsReadsUntilStage2)
{
    ScriptedErrorModel model({{0, true}});
    RacetrackStripe s = makeStripe(8, &model);
    s.poke(3, Bit::One);
    s.shift(1);
    EXPECT_TRUE(s.misaligned());
    EXPECT_EQ(s.read(0), Bit::X); // slot 4 holds One but unreadable
    EXPECT_FALSE(s.write(0, Bit::Zero));
    s.applyStsStage2();
    EXPECT_FALSE(s.misaligned());
    // Positive STS pushed the walls one extra step.
    EXPECT_EQ(s.trueOffset(), 2);
    EXPECT_EQ(s.peek(5), Bit::One);
}

TEST(Stripe, ShiftWhileMisalignedResolvesFirst)
{
    ScriptedErrorModel model({{0, true}});
    RacetrackStripe s = makeStripe(8, &model);
    s.shift(1);
    EXPECT_TRUE(s.misaligned());
    s.shift(1); // should re-align (stage-2 equivalent) then move
    EXPECT_FALSE(s.misaligned());
    EXPECT_EQ(s.trueOffset(), 3); // 1 + 1 (stage 2) + 1
}

TEST(Stripe, ShiftAndWriteProgramsEnteringDomain)
{
    RacetrackStripe s = makeStripe(8);
    s.shiftAndWrite(Bit::One, true);
    EXPECT_EQ(s.peek(0), Bit::One);
    s.shiftAndWrite(Bit::Zero, false);
    EXPECT_EQ(s.peek(7), Bit::Zero);
}

TEST(Stripe, CountersTrackActivity)
{
    ScriptedErrorModel model({{+1, false}});
    RacetrackStripe s = makeStripe(8, &model);
    s.shift(2); // +1 error -> 3 steps moved
    s.shift(-1);
    EXPECT_EQ(s.shiftOps(), 2u);
    EXPECT_EQ(s.stepsMoved(), 4u);
}

TEST(Stripe, ZeroDistanceShiftIsNoOp)
{
    RacetrackStripe s = makeStripe(8);
    s.poke(3, Bit::One);
    s.shift(0);
    EXPECT_EQ(s.trueOffset(), 0);
    EXPECT_EQ(s.peek(3), Bit::One);
}

TEST(Stripe, OverLengthShiftClearsEverything)
{
    RacetrackStripe s = makeStripe(4);
    for (int i = 0; i < 4; ++i)
        s.poke(i, Bit::One);
    s.shift(10);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(s.peek(i), Bit::X);
}

TEST(Stripe, PackedStorageMatchesReferenceSemantics)
{
    // Randomized differential test of the packed 2-bit-per-domain
    // representation against a plain Bit-vector reference, across
    // widths that exercise full words, partial tail words and
    // single-word wires, with shift distances beyond a word.
    for (int slots : {5, 31, 32, 33, 64, 65, 100, 127, 128, 200}) {
        std::vector<Port> ports = {{0, PortKind::ReadWrite}};
        RacetrackStripe s(slots, ports, &g_zero, Rng(3));
        std::vector<Bit> ref(static_cast<size_t>(slots), Bit::X);
        Rng rng(slots);
        for (int i = 0; i < slots; ++i) {
            Bit b = rng.bernoulli(0.5) ? Bit::One : Bit::Zero;
            if (rng.bernoulli(0.1))
                b = Bit::X;
            s.poke(i, b);
            ref[static_cast<size_t>(i)] = b;
        }
        for (int step = 0; step < 40; ++step) {
            int dist = static_cast<int>(rng.uniformInt(81)) - 40;
            s.shift(dist);
            // Mirror the move on the reference: right shift pulls
            // X in at the left edge, left shift at the right edge.
            std::vector<Bit> next(static_cast<size_t>(slots),
                                  Bit::X);
            for (int i = 0; i < slots; ++i) {
                int src = i - dist;
                if (src >= 0 && src < slots)
                    next[static_cast<size_t>(i)] =
                        ref[static_cast<size_t>(src)];
            }
            ref = next;
            for (int i = 0; i < slots; ++i)
                ASSERT_EQ(s.peek(i), ref[static_cast<size_t>(i)])
                    << "slots=" << slots << " step=" << step
                    << " dist=" << dist << " slot=" << i;
        }
    }
}

} // namespace
} // namespace rtm
