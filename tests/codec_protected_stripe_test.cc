/**
 * @file
 * Functional and property tests for the protected stripe: data
 * integrity under injected position errors, detection/correction
 * semantics for every supported variant, and ground-truth/believed
 * offset reconciliation.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "codec/protected_stripe.hh"
#include "device/error_model.hh"

namespace rtm
{
namespace
{

PeccConfig
cfg(int segments, int lseg, int m, PeccVariant variant)
{
    PeccConfig c;
    c.num_segments = segments;
    c.seg_len = lseg;
    c.correct = m;
    c.variant = variant;
    return c;
}

std::vector<Bit>
patternData(int n)
{
    std::vector<Bit> data;
    for (int i = 0; i < n; ++i)
        data.push_back((i * 7 + 3) % 3 == 0 ? Bit::One : Bit::Zero);
    return data;
}

TEST(ProtectedStripe, CleanShiftsKeepAlignment)
{
    ScriptedErrorModel model;
    ProtectedStripe ps(cfg(2, 8, 1, PeccVariant::Standard), &model,
                       Rng(1));
    ps.initializeIdeal();
    for (int r = 0; r < 8; ++r) {
        auto res = ps.seekIndex(r);
        EXPECT_FALSE(res.detected);
        EXPECT_EQ(ps.positionError(), 0);
        EXPECT_TRUE(ps.checkNow().ok());
    }
}

TEST(ProtectedStripe, DataSurvivesFullSweep)
{
    ScriptedErrorModel model;
    PeccConfig c = cfg(4, 8, 1, PeccVariant::Standard);
    ProtectedStripe ps(c, &model, Rng(2));
    ps.initializeIdeal();
    auto data = patternData(c.dataDomains());
    ps.loadData(data);
    // Visit every index, then return home; data must be intact.
    for (int r = 0; r < 8; ++r)
        ps.seekIndex(r);
    ps.seekIndex(7); // home (offset 0)
    EXPECT_EQ(ps.dumpData(), data);
}

TEST(ProtectedStripe, ReadAlignedSeesLoadedBits)
{
    ScriptedErrorModel model;
    PeccConfig c = cfg(2, 4, 1, PeccVariant::Standard);
    ProtectedStripe ps(c, &model, Rng(3));
    ps.initializeIdeal();
    std::vector<Bit> data(static_cast<size_t>(c.dataDomains()),
                          Bit::Zero);
    data[5] = Bit::One; // segment 1, local index 1
    ps.loadData(data);
    ps.seekIndex(1);
    EXPECT_EQ(ps.readAligned(1), Bit::One);
    EXPECT_EQ(ps.readAligned(0), Bit::Zero);
}

TEST(ProtectedStripe, WriteAlignedRoundTrips)
{
    ScriptedErrorModel model;
    PeccConfig c = cfg(2, 4, 1, PeccVariant::Standard);
    ProtectedStripe ps(c, &model, Rng(4));
    ps.initializeIdeal();
    ps.seekIndex(2);
    EXPECT_TRUE(ps.writeAligned(0, Bit::One));
    EXPECT_EQ(ps.readAligned(0), Bit::One);
    ps.seekIndex(0);
    ps.seekIndex(2);
    EXPECT_EQ(ps.readAligned(0), Bit::One);
}

TEST(ProtectedStripe, SecdedDetectsAndCorrectsPlusOne)
{
    auto model = std::make_unique<ScriptedErrorModel>(
        std::vector<ShiftOutcome>{{+1, false}});
    ProtectedStripe ps(cfg(2, 8, 1, PeccVariant::Standard),
                       model.get(), Rng(5));
    ps.initializeIdeal();
    auto res = ps.shiftBy(3);
    EXPECT_TRUE(res.detected);
    EXPECT_TRUE(res.corrected);
    EXPECT_FALSE(res.unrecoverable);
    EXPECT_EQ(res.inferred_error, +1);
    EXPECT_EQ(ps.positionError(), 0);
}

TEST(ProtectedStripe, SecdedDetectsAndCorrectsMinusOne)
{
    auto model = std::make_unique<ScriptedErrorModel>(
        std::vector<ShiftOutcome>{{-1, false}});
    ProtectedStripe ps(cfg(2, 8, 1, PeccVariant::Standard),
                       model.get(), Rng(6));
    ps.initializeIdeal();
    auto res = ps.shiftBy(4);
    EXPECT_TRUE(res.detected);
    EXPECT_TRUE(res.corrected);
    EXPECT_EQ(res.inferred_error, -1);
    EXPECT_EQ(ps.positionError(), 0);
}

TEST(ProtectedStripe, SecdedFlagsDoubleStepAsUnrecoverable)
{
    auto model = std::make_unique<ScriptedErrorModel>(
        std::vector<ShiftOutcome>{{+2, false}});
    ProtectedStripe ps(cfg(2, 8, 1, PeccVariant::Standard),
                       model.get(), Rng(7));
    ps.initializeIdeal();
    auto res = ps.shiftBy(3);
    EXPECT_TRUE(res.detected);
    EXPECT_FALSE(res.corrected);
    EXPECT_TRUE(res.unrecoverable);
}

TEST(ProtectedStripe, SedDetectsButCannotCorrect)
{
    auto model = std::make_unique<ScriptedErrorModel>(
        std::vector<ShiftOutcome>{{+1, false}});
    ProtectedStripe ps(cfg(2, 8, 0, PeccVariant::Standard),
                       model.get(), Rng(8));
    ps.initializeIdeal();
    auto res = ps.shiftBy(2);
    EXPECT_TRUE(res.detected);
    EXPECT_FALSE(res.corrected);
    EXPECT_TRUE(res.unrecoverable);
}

TEST(ProtectedStripe, SedMissesEvenErrors)
{
    // A +/-2 error aliases to a clean SED window: the silent channel.
    auto model = std::make_unique<ScriptedErrorModel>(
        std::vector<ShiftOutcome>{{+2, false}});
    ProtectedStripe ps(cfg(2, 8, 0, PeccVariant::Standard),
                       model.get(), Rng(9));
    ps.initializeIdeal();
    auto res = ps.shiftBy(2);
    EXPECT_FALSE(res.detected);
    EXPECT_NE(ps.positionError(), 0); // silently misaligned
}

TEST(ProtectedStripe, CorrectionShiftErrorIsRetried)
{
    // First shift over-shoots; the correction itself over-shoots
    // again; a second correction round must fix it.
    auto model = std::make_unique<ScriptedErrorModel>(
        std::vector<ShiftOutcome>{{+1, false}, {+1, false}});
    ProtectedStripe ps(cfg(2, 8, 1, PeccVariant::Standard),
                       model.get(), Rng(10));
    ps.initializeIdeal();
    auto res = ps.shiftBy(3);
    EXPECT_TRUE(res.detected);
    EXPECT_TRUE(res.corrected);
    EXPECT_EQ(ps.positionError(), 0);
    EXPECT_GE(res.correction_shifts, 2);
}

TEST(ProtectedStripe, StopInMiddleResolvedByNextOperation)
{
    auto model = std::make_unique<ScriptedErrorModel>(
        std::vector<ShiftOutcome>{{0, true}});
    ProtectedStripe ps(cfg(2, 8, 1, PeccVariant::Standard),
                       model.get(), Rng(11));
    ps.initializeIdeal();
    auto res = ps.shiftBy(2);
    // The walls rest between notches; window bits read X -> detected.
    EXPECT_TRUE(res.detected);
}

TEST(PeccO, StepByStepCleanOperation)
{
    ScriptedErrorModel model;
    PeccConfig c = cfg(2, 8, 1, PeccVariant::OverheadRegion);
    ProtectedStripe ps(c, &model, Rng(12));
    ps.initializeIdeal();
    auto data = patternData(c.dataDomains());
    ps.loadData(data);
    for (int r = 0; r < 8; ++r) {
        auto res = ps.seekIndex(r);
        EXPECT_FALSE(res.detected) << "index " << r;
        EXPECT_EQ(ps.positionError(), 0);
    }
    ps.seekIndex(7);
    EXPECT_EQ(ps.dumpData(), data);
}

TEST(PeccO, DetectsAndCorrectsInjectedError)
{
    auto model = std::make_unique<ScriptedErrorModel>(
        std::vector<ShiftOutcome>{{+1, false}});
    ProtectedStripe ps(cfg(2, 8, 1, PeccVariant::OverheadRegion),
                       model.get(), Rng(13));
    ps.initializeIdeal();
    auto res = ps.shiftBy(1);
    EXPECT_TRUE(res.detected);
    EXPECT_TRUE(res.corrected);
    EXPECT_EQ(ps.positionError(), 0);
    // The stripe must remain usable afterwards.
    for (int r = 0; r < 8; ++r) {
        auto r2 = ps.seekIndex(r);
        EXPECT_FALSE(r2.unrecoverable);
        EXPECT_EQ(ps.positionError(), 0);
    }
}

/**
 * Property: under a high injected +/-1 error rate, a SECDED stripe
 * never ends an operation misaligned without flagging it. A detected
 * unrecoverable outcome (DUE) is permitted - it can legitimately
 * happen when a correction shift itself errs repeatedly - but it
 * must be rare and, crucially, never silent: every op that does not
 * raise the DUE flag must leave the stripe perfectly aligned.
 */
class FaultInjectionSweep
    : public ::testing::TestWithParam<std::tuple<PeccVariant,
                                                 uint64_t>>
{
};

TEST_P(FaultInjectionSweep, CorrectableErrorsNeverGoSilent)
{
    auto [variant, seed] = GetParam();
    // Scale the paper's +/-1 rate up to ~3% so a 3000-op run sees
    // ~100 injected errors; +/-2 stays negligible, so every injected
    // error is correctable in isolation (multi-error correction
    // episodes can still surface as DUE).
    auto base = std::make_shared<PaperCalibratedErrorModel>();
    ScaledErrorModel model(base, 300.0);
    PeccConfig c = cfg(2, 8, 1, variant);
    ProtectedStripe ps(c, &model, Rng(seed));
    ps.initializeIdeal();
    auto data = patternData(c.dataDomains());
    ps.loadData(data);

    Rng dice(seed ^ 0xabcdef);
    uint64_t detections = 0;
    uint64_t due_events = 0;
    for (int i = 0; i < 3000; ++i) {
        int r = static_cast<int>(dice.uniformInt(8));
        auto res = ps.seekIndex(r);
        if (res.detected)
            ++detections;
        if (res.unrecoverable) {
            // DUE: the architecture rebuilds the stripe from a clean
            // copy (the cache line is refetched); model that here.
            ++due_events;
            ps.initializeIdeal();
            ps.loadData(data);
            continue;
        }
        ASSERT_EQ(ps.positionError(), 0) << "op " << i;
    }
    EXPECT_GT(detections, 0u);
    // DUE stays second-order: a handful out of ~100 detections.
    EXPECT_LE(due_events, 5u);
    // Data image intact after the whole run.
    ps.seekIndex(7);
    EXPECT_EQ(ps.dumpData(), data);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, FaultInjectionSweep,
    ::testing::Combine(::testing::Values(PeccVariant::Standard,
                                         PeccVariant::OverheadRegion),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u)));

TEST(ProtectedStripe, BaselineSilentlyCorrupts)
{
    auto model = std::make_unique<ScriptedErrorModel>(
        std::vector<ShiftOutcome>{{+1, false}});
    ProtectedStripe ps(cfg(2, 8, 1, PeccVariant::None), model.get(),
                       Rng(14));
    ps.initializeIdeal();
    auto res = ps.shiftBy(3);
    EXPECT_FALSE(res.detected);
    EXPECT_NE(ps.positionError(), 0);
}

/** The window phase as phaseOf sees the bits the window ports read. */
int
referenceWindowPhase(const ProtectedStripe &ps, bool left)
{
    const PeccLayout &lay = ps.layout();
    const auto &slots = left ? lay.left_window_slots : lay.window_slots;
    std::vector<Bit> bits;
    for (int i = 0; i < static_cast<int>(slots.size()); ++i)
        bits.push_back(ps.stripe().read(
            left ? lay.leftWindowPortIndex(i) : lay.windowPortIndex(i)));
    return ps.code().phaseOf(bits);
}

TEST(ProtectedStripe, IntegerWindowPhaseMatchesPhaseOf)
{
    // readWindowPhase packs the window into an integer instead of a
    // vector. Against phaseOf: every lane state (0, 1, X and the raw
    // lane value 3) on every window port; every tape offset a
    // fault-free walk reaches, including those that bring the
    // undefined head/tail pad domains under the window; and a
    // misaligned stripe. SED, SECDED, the widened lm-pos window and
    // both p-ECC-O windows.
    PeccConfig wide = cfg(4, 8, 1, PeccVariant::Standard);
    wide.window_ports = 3;
    for (const PeccConfig &c :
         {cfg(2, 8, 0, PeccVariant::Standard),
          cfg(2, 8, 1, PeccVariant::Standard), wide,
          cfg(2, 8, 1, PeccVariant::OverheadRegion)}) {
        ScriptedErrorModel model;
        ProtectedStripe ps(c, &model, Rng(3));
        const PeccLayout &lay = ps.layout();
        for (bool left : {false, true}) {
            const auto &slots =
                left ? lay.left_window_slots : lay.window_slots;
            if (slots.empty())
                continue;
            const std::string ctx =
                "w " + std::to_string(c.window()) + " variant " +
                std::to_string(static_cast<int>(c.variant)) +
                (left ? " left" : " right");

            ps.initializeIdeal();
            const int w = static_cast<int>(slots.size());
            for (int state = 0; state < 1 << (2 * w); ++state) {
                for (int i = 0; i < w; ++i)
                    ps.stripe().poke(
                        slots[static_cast<size_t>(i)],
                        static_cast<Bit>((state >> (2 * i)) & 3));
                ASSERT_EQ(ps.readWindowPhase(left),
                          referenceWindowPhase(ps, left))
                    << ctx << " lanes " << state;
            }

            ps.initializeIdeal();
            int readable = 0, unreadable = 0;
            for (int step = 0; step < 3 * lay.wire_len; ++step) {
                const int phase = ps.readWindowPhase(left);
                ASSERT_EQ(phase, referenceWindowPhase(ps, left))
                    << ctx << " offset " << ps.stripe().trueOffset();
                ++(phase < 0 ? unreadable : readable);
                ps.stripe().shift(step < lay.wire_len ? 1 : -1);
            }
            EXPECT_GT(readable, 0) << ctx;
            EXPECT_GT(unreadable, 0) << ctx;
        }
    }

    ScriptedErrorModel stuck({{0, true}});
    ProtectedStripe ps(cfg(2, 8, 1, PeccVariant::Standard), &stuck,
                       Rng(4));
    ps.initializeIdeal();
    ps.stripe().shift(1);
    ASSERT_TRUE(ps.stripe().misaligned());
    EXPECT_EQ(ps.readWindowPhase(false), -1);
    EXPECT_EQ(referenceWindowPhase(ps, false), -1);
}

TEST(ProtectedStripe, PackedWindowReadMatchesPortReadsOnRandomTapes)
{
    // readWindowPhase reads its window as one packed load of 2-bit
    // lanes (RacetrackStripe::windowLanes). Against the per-port
    // reference on random tapes: random 0/1/X contents, random
    // shifts with step errors and stop-in-middle outcomes (a
    // misaligned tape reads X on every port), both p-ECC-O windows,
    // and windows that straddle a 32-slot word of the packed tape.
    PeccConfig wide = cfg(2, 8, 1, PeccVariant::Standard);
    wide.window_ports = 7; // slots 26..32
    const std::vector<PeccConfig> configs = {
        cfg(2, 8, 1, PeccVariant::Standard),
        cfg(2, 8, 3, PeccVariant::Standard), // slots 30..33
        wide,
        cfg(2, 8, 1, PeccVariant::OverheadRegion),
        cfg(4, 6, 1, PeccVariant::OverheadRegion), // right: 63..64
    };
    Rng dice(2024);
    int straddling = 0, misaligned = 0, left_reads = 0, readable = 0;
    for (const PeccConfig &c : configs) {
        std::vector<ShiftOutcome> script;
        for (int i = 0; i < 4000; ++i) {
            switch (dice.uniformInt(8)) {
              case 0: script.push_back({0, true}); break;
              case 1: script.push_back({1, false}); break;
              case 2: script.push_back({-1, false}); break;
              default: script.push_back({}); break;
            }
        }
        ScriptedErrorModel model(script);
        ProtectedStripe ps(c, &model, Rng(5));
        const PeccLayout &lay = ps.layout();
        ASSERT_GT(lay.wire_len, 32);
        for (const auto *slots :
             {&lay.window_slots, &lay.left_window_slots}) {
            if (!slots->empty() &&
                slots->front() / 32 != slots->back() / 32)
                ++straddling;
        }
        for (int tape = 0; tape < 40; ++tape) {
            for (int slot = 0; slot < lay.wire_len; ++slot) {
                const uint64_t r = dice.uniformInt(10);
                ps.stripe().poke(slot, r == 0  ? Bit::X
                                       : r % 2 ? Bit::One
                                               : Bit::Zero);
            }
            for (int step = 0; step < 50; ++step) {
                for (bool left : {false, true}) {
                    if ((left ? lay.left_window_slots
                              : lay.window_slots)
                            .empty())
                        continue;
                    const int phase = ps.readWindowPhase(left);
                    ASSERT_EQ(phase, referenceWindowPhase(ps, left))
                        << "w " << c.window() << " variant "
                        << static_cast<int>(c.variant)
                        << (left ? " left" : " right") << " tape "
                        << tape << " step " << step;
                    left_reads += left ? 1 : 0;
                    readable += phase >= 0 ? 1 : 0;
                }
                misaligned += ps.stripe().misaligned() ? 1 : 0;
                const int d = static_cast<int>(dice.uniformInt(4));
                ps.stripe().shift(d < 2 ? d - 2 : d - 1);
            }
        }
    }
    EXPECT_EQ(straddling, 3);
    EXPECT_GT(misaligned, 0);
    EXPECT_GT(left_reads, 0);
    EXPECT_GT(readable, 0);
}

// At the longest del-ins track the layout admits, a k-step burst on
// the readout makes the return home exactly kMaxShiftDistance long
// (N - 1 = Lseg + 2k + 1 reads plus the decoded offset k), and it
// draws from the error table without leaving it.
TEST(ProtectedStripe, LongestDelInsReturnShiftFitsTheErrorTable)
{
    const int k = 2;
    const int lseg = kMaxShiftDistance - 3 * k - 1;
    const PeccConfig c = cfg(2, lseg, k, PeccVariant::DelIns);
    ASSERT_EQ(protectionGeometryError(c, 0), "");
    for (int burst : {k, -k}) {
        // The first read shift strays by `burst`; every later shift,
        // the return home included, draws from the table.
        ScriptedErrorModel model({{burst, false}});
        ProtectedStripe ps(c, &model, Rng(3));
        ps.initializeIdeal();
        const std::vector<Bit> payload =
            patternData(ps.delInsCode()->payloadBits());
        ps.loadPayload(payload);
        std::vector<Bit> got;
        const ProtectedShiftResult res = ps.readoutNow(&got);
        EXPECT_TRUE(res.corrected) << burst;
        EXPECT_EQ(res.inferred_error, burst);
        EXPECT_EQ(ps.positionError(), 0) << burst;
        EXPECT_EQ(got, payload) << burst;
    }
}

} // namespace
} // namespace rtm
