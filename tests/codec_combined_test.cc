/**
 * @file
 * Unit tests for the combined (p-ECC + SECDED) protection stack:
 * bit flips handled by the bit code, position errors by the
 * position code, and both at once.
 */

#include <gtest/gtest.h>

#include <memory>

#include "codec/combined.hh"

namespace rtm
{
namespace
{

PeccConfig
lineConfig()
{
    PeccConfig c;
    c.num_segments = 1;
    c.seg_len = 8;
    c.correct = 1;
    c.variant = PeccVariant::Standard;
    return c;
}

TEST(ProtectedLine, CleanWriteReadRoundTrip)
{
    ScriptedErrorModel model;
    ProtectedLine line(lineConfig(), &model, Rng(1));
    line.initialize();
    for (int idx = 0; idx < 8; ++idx)
        line.write(idx, 0x1111111111111111ull * (idx + 1));
    for (int idx = 0; idx < 8; ++idx) {
        LineReadResult r = line.read(idx);
        EXPECT_TRUE(r.ok());
        EXPECT_EQ(r.bit_status, BeccDecode::Status::Clean);
        EXPECT_EQ(r.data, 0x1111111111111111ull * (idx + 1));
    }
}

TEST(ProtectedLine, BitFlipCorrectedBySecded)
{
    ScriptedErrorModel model;
    ProtectedLine line(lineConfig(), &model, Rng(2));
    line.initialize();
    line.write(3, 0xdeadbeefcafef00dull);
    line.flipStoredBit(3, 17);
    LineReadResult r = line.read(3);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.bit_status, BeccDecode::Status::Corrected);
    EXPECT_EQ(r.data, 0xdeadbeefcafef00dull);
    EXPECT_EQ(line.bitCorrections(), 1u);
}

TEST(ProtectedLine, DoubleBitFlipDetected)
{
    ScriptedErrorModel model;
    ProtectedLine line(lineConfig(), &model, Rng(3));
    line.initialize();
    line.write(0, 0x5555aaaa5555aaaaull);
    line.flipStoredBit(0, 2);
    line.flipStoredBit(0, 40);
    LineReadResult r = line.read(0);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.bit_status, BeccDecode::Status::DetectedDouble);
}

TEST(ProtectedLine, PositionErrorCorrectedByPecc)
{
    // One stripe over-shoots: p-ECC counter-shifts it before the
    // read, so the bit layer never even sees an error.
    auto model = std::make_unique<ScriptedErrorModel>(
        std::vector<ShiftOutcome>{{+1, false}});
    ProtectedLine line(lineConfig(), model.get(), Rng(4));
    line.initialize();
    line.write(5, 0x0123456789abcdefull);
    LineReadResult r = line.read(5);
    EXPECT_TRUE(r.ok());
    EXPECT_GT(line.positionDetections(), 0u);
    EXPECT_TRUE(r.position_corrected ||
                line.positionDetections() > 0);
    EXPECT_EQ(r.data, 0x0123456789abcdefull);
    EXPECT_EQ(r.bit_status, BeccDecode::Status::Clean);
}

TEST(ProtectedLine, BothErrorClassesAtOnce)
{
    // A position error on one stripe AND a flipped bit on another:
    // the two layers recover independently (the paper's
    // orthogonality claim, end to end).
    auto model = std::make_unique<ScriptedErrorModel>(
        std::vector<ShiftOutcome>{{-1, false}});
    ProtectedLine line(lineConfig(), model.get(), Rng(5));
    line.initialize();
    line.write(2, 0xfeedface12345678ull);
    line.flipStoredBit(2, 60);
    LineReadResult r = line.read(2);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.data, 0xfeedface12345678ull);
    EXPECT_EQ(r.bit_status, BeccDecode::Status::Corrected);
    EXPECT_GT(line.positionDetections(), 0u);
}

TEST(ProtectedLine, SoakUnderBothFaultClasses)
{
    auto base = std::make_shared<PaperCalibratedErrorModel>();
    ScaledErrorModel model(base, 300.0);
    ProtectedLine line(lineConfig(), &model, Rng(6));
    line.initialize();
    Rng dice(7);
    uint64_t words[8];
    for (int idx = 0; idx < 8; ++idx) {
        words[idx] = dice.next();
        line.write(idx, words[idx]);
    }
    int bad_reads = 0;
    for (int i = 0; i < 400; ++i) {
        int idx = static_cast<int>(dice.uniformInt(8));
        // Occasionally flip a bit (transient soft error).
        if (dice.bernoulli(0.05)) {
            line.flipStoredBit(idx,
                               static_cast<int>(
                                   dice.uniformInt(64)));
        }
        LineReadResult r = line.read(idx);
        if (!r.ok()) {
            ++bad_reads; // flagged, never silent
            line.initialize();
            for (int j = 0; j < 8; ++j)
                line.write(j, words[j]);
            continue;
        }
        ASSERT_EQ(r.data, words[idx]) << "op " << i;
        // A corrected single flip is persistent in the domains;
        // write back the repaired word (scrubbing).
        if (r.bit_status == BeccDecode::Status::Corrected)
            line.write(idx, words[idx]);
    }
    // Faults did occur and were handled.
    EXPECT_GT(line.positionDetections() + line.bitCorrections(),
              0u);
    EXPECT_LT(bad_reads, 40);
}

TEST(ProtectedLineDeathTest, RequiresSingleSegmentStripes)
{
    ScriptedErrorModel model;
    PeccConfig c = lineConfig();
    c.num_segments = 2;
    EXPECT_EXIT(ProtectedLine(c, &model, Rng(8)),
                ::testing::ExitedWithCode(1), "single-segment");
}

} // namespace
} // namespace rtm
