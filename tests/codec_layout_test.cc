/**
 * @file
 * Unit tests for the p-ECC stripe geometry.
 */

#include <gtest/gtest.h>

#include "codec/del_ins.hh"
#include "codec/layout.hh"

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

TEST(Layout, PaperSecdedExampleCodeLength)
{
    // Sec. 4.2.2: two 4-bit segments, m = 1 -> 9 code domains
    // ("Lseg + 5").
    PeccLayout lay =
        computeLayout(cfg(2, 4, 1, PeccVariant::Standard));
    EXPECT_EQ(lay.code_len, 9);
}

TEST(Layout, PaperSedExtraDomains)
{
    // Sec. 4.2.1: Lseg = 4 SED adds five code domains.
    PeccLayout lay =
        computeLayout(cfg(2, 4, 0, PeccVariant::Standard));
    EXPECT_EQ(lay.extraDomains(), 5);
    EXPECT_EQ(lay.extraReadPorts(), 1);
}

TEST(Layout, PaperSecdedOverheadAccounting)
{
    // Default config (8x8, m=1): paper Table 5 reports 17.6% cell
    // overhead; the analytic accounting gives Lseg + 4m - 1 extra
    // domains = 11 -> 17.2%.
    PeccLayout lay =
        computeLayout(cfg(8, 8, 1, PeccVariant::Standard));
    EXPECT_EQ(lay.extraDomains(), 11);
    EXPECT_NEAR(lay.storageOverhead(), 0.172, 0.005);
    EXPECT_EQ(lay.extraReadPorts(), 2);
    EXPECT_EQ(lay.extraWritePorts(), 0);

    // The del-ins code has no code region: its extra domains are the
    // per-track VT check bits plus the flush-read sentinel domains,
    // read through the data ports.
    PeccLayout del_ins =
        computeLayout(cfg(4, 8, 2, PeccVariant::DelIns));
    DelInsCode ref(4, 8, 2);
    EXPECT_EQ(del_ins.extraDomains(),
              4 * ref.checkBitsPerTrack() + ref.flushReads());
    EXPECT_EQ(del_ins.extraReadPorts(), 0);
}

TEST(Layout, PeccOOverheadIndependentOfSegmentLength)
{
    for (int lseg : {4, 8, 16, 32, 64}) {
        PeccLayout lay = computeLayout(
            cfg(2, lseg, 1, PeccVariant::OverheadRegion));
        EXPECT_EQ(lay.extraDomains(), 8) << "Lseg " << lseg;
        EXPECT_EQ(lay.extraReadPorts(), 3);
        EXPECT_EQ(lay.extraWritePorts(), 2);
    }
}

TEST(Layout, PeccOWinsAtLargeSegments)
{
    // Fig. 13's crossover: p-ECC-O's constant overhead beats the
    // Standard variant once segments get long.
    auto std16 = computeLayout(cfg(2, 16, 1, PeccVariant::Standard));
    auto ovr16 =
        computeLayout(cfg(2, 16, 1, PeccVariant::OverheadRegion));
    EXPECT_GT(std16.extraDomains(), ovr16.extraDomains());
    auto std64 = computeLayout(cfg(2, 64, 1, PeccVariant::Standard));
    auto ovr64 =
        computeLayout(cfg(2, 64, 1, PeccVariant::OverheadRegion));
    EXPECT_GT(std64.extraDomains(), 4 * ovr64.extraDomains());
}

TEST(Layout, CodewordAccountingReducesToPerFrameAtOneFrame)
{
    PeccLayout lay =
        computeLayout(cfg(8, 8, 1, PeccVariant::Standard));
    EXPECT_EQ(lay.config.effectiveCorrect(), 1);
    EXPECT_EQ(lay.codewordExtraDomains(), lay.extraDomains());
    EXPECT_DOUBLE_EQ(lay.codewordStorageOverhead(),
                     lay.storageOverhead());
    EXPECT_EQ(lay.redundancyAccessesPerWrite(), 0);
}

TEST(Layout, PooledStrengthGrowsLogarithmically)
{
    for (int frames : {2, 4, 8}) {
        PeccConfig c = cfg(8, 8, 1, PeccVariant::Standard);
        c.codeword_frames = frames;
        int boost = 0;
        for (int f = frames; f > 1; f >>= 1)
            ++boost;
        EXPECT_EQ(c.effectiveCorrect(), 1 + boost)
            << "F " << frames;
        EXPECT_EQ(computeLayout(c).redundancyAccessesPerWrite(), 1);
    }
    // The pooled strength is capped by what a per-stripe position
    // code can represent (Lseg - 1).
    PeccConfig tight = cfg(8, 4, 2, PeccVariant::Standard);
    tight.codeword_frames = 8;
    EXPECT_EQ(tight.effectiveCorrect(), 3);
}

TEST(Layout, CodewordOverheadFallsMonotonicallyWithFrames)
{
    double prev = 1e9;
    for (int frames : {1, 2, 4, 8}) {
        PeccConfig c = cfg(8, 8, 1, PeccVariant::Standard);
        c.codeword_frames = frames;
        PeccLayout lay = computeLayout(c);
        const double overhead = lay.codewordStorageOverhead();
        EXPECT_LT(overhead, prev) << "F " << frames;
        EXPECT_GT(overhead, 0.0);
        prev = overhead;
    }
}

TEST(Layout, GeometryErrorDiagnosesBadCodewordFrames)
{
    PeccConfig good = cfg(8, 8, 1, PeccVariant::Standard);
    good.codeword_frames = 4;
    EXPECT_EQ(protectionGeometryError(good, 64), "");

    PeccConfig odd = cfg(8, 8, 1, PeccVariant::Standard);
    odd.codeword_frames = 3;
    EXPECT_NE(protectionGeometryError(odd, 64), "");

    PeccConfig wide = cfg(8, 8, 1, PeccVariant::Standard);
    wide.codeword_frames = 16;
    EXPECT_NE(protectionGeometryError(wide, 64), "");

    // A codeword must divide the bank group evenly.
    PeccConfig straddle = cfg(8, 8, 1, PeccVariant::Standard);
    straddle.codeword_frames = 8;
    EXPECT_NE(protectionGeometryError(straddle, 12), "");
    // frames_per_group = 0 skips the group checks (stripe-level
    // uses).
    EXPECT_EQ(protectionGeometryError(straddle, 0), "");
}

// Every shift a stripe makes must lie in the error table: seeks of up
// to Lseg - 1 steps on any variant, and a del-ins readout's return
// shift of Lseg + 3k + 1.
TEST(Layout, GeometryErrorKeepsShiftsInsideTheErrorTable)
{
    for (PeccVariant v : {PeccVariant::None, PeccVariant::Standard,
                          PeccVariant::OverheadRegion}) {
        EXPECT_EQ(protectionGeometryError(cfg(2, kMaxSegLen, 1, v), 0), "")
            << static_cast<int>(v);
        EXPECT_NE(protectionGeometryError(cfg(2, kMaxSegLen + 1, 1, v), 0)
                      .find("exceed the error table"),
                  std::string::npos)
            << static_cast<int>(v);
    }
    for (int k : {1, 2, 3}) {
        const int lseg = kMaxShiftDistance - 3 * k - 1;
        EXPECT_EQ(protectionGeometryError(
                      cfg(2, lseg, k, PeccVariant::DelIns), 0),
                  "")
            << "k " << k;
        EXPECT_EQ(protectionGeometryError(
                      cfg(2, lseg + 1, k, PeccVariant::DelIns), 0),
                  "shifts of up to 64 steps (Lseg=" +
                      std::to_string(lseg + 1) + ", m=" +
                      std::to_string(k) +
                      ") exceed the error table's 63")
            << "k " << k;
    }
}

TEST(Layout, BaselineHasNoProtectionCosts)
{
    PeccLayout lay = computeLayout(cfg(8, 8, 1, PeccVariant::None));
    EXPECT_EQ(lay.extraDomains(), 0);
    EXPECT_EQ(lay.extraReadPorts(), 0);
    EXPECT_EQ(lay.extraWritePorts(), 0);
    EXPECT_TRUE(lay.window_slots.empty());
}

TEST(Layout, OffsetForIndexCoversSegment)
{
    PeccLayout lay =
        computeLayout(cfg(8, 8, 1, PeccVariant::Standard));
    std::set<int> offsets;
    for (int r = 0; r < 8; ++r) {
        int o = lay.offsetForIndex(r);
        EXPECT_GE(o, 0);
        EXPECT_LT(o, 8);
        offsets.insert(o);
    }
    EXPECT_EQ(offsets.size(), 8u);
    // Home position (offset 0) reads the last index.
    EXPECT_EQ(lay.offsetForIndex(7), 0);
}

class LayoutGeometry
    : public ::testing::TestWithParam<std::tuple<int, int, int,
                                                 PeccVariant>>
{
};

TEST_P(LayoutGeometry, PortsAndRegionsStayOnTheWire)
{
    auto [segments, lseg, m, variant] = GetParam();
    if (variant == PeccVariant::Standard && m >= lseg - 1)
        GTEST_SKIP() << "m too large for this segment length";
    PeccLayout lay = computeLayout(cfg(segments, lseg, m, variant));

    EXPECT_GT(lay.wire_len, 0);
    for (int slot : lay.data_port_slots) {
        EXPECT_GE(slot, 0);
        EXPECT_LT(slot, lay.wire_len);
    }
    for (int slot : lay.window_slots) {
        EXPECT_GE(slot, 0);
        EXPECT_LT(slot, lay.wire_len);
    }
    for (int slot : lay.left_window_slots) {
        EXPECT_GE(slot, 0);
        EXPECT_LT(slot, lay.wire_len);
    }
    // Data region fits including worst-case excursions; the
    // unprotected baseline reserves no error margin by design (data
    // loss is exactly its failure mode).
    int omax_err = variant == PeccVariant::None
                       ? (lseg - 1)
                       : (lseg - 1) + (m + 1);
    EXPECT_GE(lay.data_base, 0);
    EXPECT_LE(lay.data_base + segments * lseg + omax_err,
              lay.wire_len);
}

TEST_P(LayoutGeometry, DataPortsAlignWithSegments)
{
    auto [segments, lseg, m, variant] = GetParam();
    if (variant == PeccVariant::Standard && m >= lseg - 1)
        GTEST_SKIP() << "m too large for this segment length";
    PeccLayout lay = computeLayout(cfg(segments, lseg, m, variant));
    ASSERT_EQ(static_cast<int>(lay.data_port_slots.size()), segments);
    for (int s = 0; s < segments; ++s) {
        // Port s sits over the last domain of segment s at home.
        EXPECT_EQ(lay.data_port_slots[static_cast<size_t>(s)],
                  lay.data_base + s * lseg + (lseg - 1));
    }
}

TEST_P(LayoutGeometry, WindowNeverReadsDataSlots)
{
    auto [segments, lseg, m, variant] = GetParam();
    if (variant == PeccVariant::Standard && m >= lseg - 1)
        GTEST_SKIP() << "m too large for this segment length";
    if (variant == PeccVariant::None)
        GTEST_SKIP() << "baseline has no window";
    PeccLayout lay = computeLayout(cfg(segments, lseg, m, variant));
    int data_lo = lay.data_base;
    int data_hi = lay.data_base + segments * lseg; // exclusive
    for (int o = -(m + 1); o <= (lseg - 1) + (m + 1); ++o) {
        for (int slot : lay.window_slots) {
            int tape_idx = slot - o;
            EXPECT_TRUE(tape_idx < data_lo || tape_idx >= data_hi)
                << "offset " << o << " slot " << slot;
        }
        for (int slot : lay.left_window_slots) {
            int tape_idx = slot - o;
            EXPECT_TRUE(tape_idx < data_lo || tape_idx >= data_hi)
                << "offset " << o << " slot " << slot;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LayoutGeometry,
    ::testing::Combine(
        ::testing::Values(1, 2, 8),
        ::testing::Values(4, 8, 16),
        ::testing::Values(0, 1, 2),
        ::testing::Values(PeccVariant::None, PeccVariant::Standard,
                          PeccVariant::OverheadRegion)));

/** expectedPhase / expectedLeftPhase with the double modulo. */
int
referencePhase(int base, int offset, int period)
{
    const int phase = (base - offset) % period;
    return phase < 0 ? phase + period : phase;
}

TEST(Layout, MaskedExpectedPhasesMatchDoubleModulo)
{
    // The expected phases reduce by the power-of-two period with a
    // mask; against the double modulo for every offset in [-3T, 3T]
    // and periods 2^1..2^16, on layouts with a dedicated code
    // region, a widened window and both p-ECC-O windows.
    PeccConfig wide = cfg(4, 8, 1, PeccVariant::Standard);
    wide.window_ports = 3;
    for (const PeccConfig &c :
         {cfg(2, 8, 1, PeccVariant::Standard), wide,
          cfg(8, 8, 1, PeccVariant::OverheadRegion)}) {
        const PeccLayout lay = computeLayout(c);
        const int base = c.variant == PeccVariant::Standard
                             ? lay.window_slots.front() - lay.code_base
                             : lay.window_slots.front();
        const int left_base = lay.left_window_slots.empty()
                                  ? 0
                                  : lay.left_window_slots.front();
        for (int w = 1; w <= 16; ++w) {
            const int t = 1 << w;
            for (int o = -3 * t; o <= 3 * t; ++o) {
                ASSERT_EQ(lay.expectedPhase(o, t),
                          referencePhase(base, o, t))
                    << "w " << w << " offset " << o;
                ASSERT_EQ(lay.expectedLeftPhase(o, t),
                          referencePhase(left_base, o, t))
                    << "w " << w << " offset " << o;
            }
        }
    }
}

TEST(Layout, ExpectedPhaseRejectsNonPowerOfTwoPeriods)
{
    const PeccLayout lay =
        computeLayout(cfg(2, 8, 1, PeccVariant::Standard));
    EXPECT_DEATH(lay.expectedPhase(0, 6), "power of two");
    EXPECT_DEATH(lay.expectedLeftPhase(0, 0), "power of two");
}

} // namespace
} // namespace rtm
