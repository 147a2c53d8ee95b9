/**
 * @file
 * Unit tests for the de Bruijn cyclic position code and its decoder.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "codec/cyclic.hh"
#include "util/rng.hh"

namespace rtm
{
namespace
{

std::vector<Bit>
windowAt(const CyclicCode &code, int64_t phase)
{
    std::vector<Bit> bits;
    for (int i = 0; i < code.window(); ++i)
        bits.push_back(code.bitAt(phase + i));
    return bits;
}

TEST(CyclicCode, SedPatternAlternates)
{
    CyclicCode code(1);
    EXPECT_EQ(code.period(), 2);
    // The SED code is the alternating pattern of the paper's Fig. 5.
    EXPECT_NE(code.bitAt(0), code.bitAt(1));
    EXPECT_EQ(code.bitAt(0), code.bitAt(2));
    EXPECT_EQ(code.bitAt(-1), code.bitAt(1));
}

TEST(CyclicCode, SecdedPeriodFour)
{
    CyclicCode code(2);
    EXPECT_EQ(code.period(), 4);
    // Every 2-bit window must be unique across one period.
    std::set<int> phases;
    for (int p = 0; p < 4; ++p) {
        int got = code.phaseOf(windowAt(code, p));
        EXPECT_GE(got, 0);
        phases.insert(got);
    }
    EXPECT_EQ(phases.size(), 4u);
}

class CyclicWindowUniqueness : public ::testing::TestWithParam<int>
{
};

TEST_P(CyclicWindowUniqueness, AllWindowsDecodeToTheirPhase)
{
    CyclicCode code(GetParam());
    for (int p = 0; p < code.period(); ++p)
        EXPECT_EQ(code.phaseOf(windowAt(code, p)), p) << "phase " << p;
}

TEST_P(CyclicWindowUniqueness, NegativeIndicesWrap)
{
    CyclicCode code(GetParam());
    for (int p = 0; p < code.period(); ++p) {
        EXPECT_EQ(code.bitAt(p - 3LL * code.period()), code.bitAt(p));
        EXPECT_EQ(code.bitAt(p + 5LL * code.period()), code.bitAt(p));
    }
}

INSTANTIATE_TEST_SUITE_P(Windows, CyclicWindowUniqueness,
                         ::testing::Values(1, 2, 3, 4, 5, 8));

TEST(CyclicCode, PhaseOfRejectsUndefinedBits)
{
    CyclicCode code(2);
    std::vector<Bit> bits = windowAt(code, 0);
    bits[1] = Bit::X;
    EXPECT_EQ(code.phaseOf(bits), -1);
}

TEST(CyclicCode, PhaseOfRejectsWrongLength)
{
    CyclicCode code(2);
    std::vector<Bit> bits = {Bit::One};
    EXPECT_EQ(code.phaseOf(bits), -1);
}

TEST(CyclicCode, DecodeCleanWindow)
{
    CyclicCode code(2);
    DecodeResult r = code.decode(3, 3, 1);
    EXPECT_TRUE(r.valid);
    EXPECT_FALSE(r.detected);
    EXPECT_TRUE(r.ok());
}

TEST(CyclicCode, DecodeUnreadableWindowIsDetectedUncorrectable)
{
    CyclicCode code(2);
    DecodeResult r = code.decode(-1, 0, 1);
    EXPECT_FALSE(r.valid);
    EXPECT_TRUE(r.detected);
    EXPECT_FALSE(r.correctable);
}

/**
 * Sweep every (true error, believed offset) combination within the
 * decodable range and check the residue arithmetic end-to-end: the
 * phase observed with error e must decode back to e for |e| <= m and
 * be flagged uncorrectable for |e| = m + 1.
 */
class CyclicDecodeSweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(CyclicDecodeSweep, ResidueRecoversError)
{
    auto [window_bits, error] = GetParam();
    CyclicCode code(window_bits);
    int m = window_bits - 1;
    int t = code.period();
    for (int offset = 0; offset < 3 * t; ++offset) {
        // Window phase moves opposite to the offset: base - offset.
        int base = 100 * t; // arbitrary positive base
        int expected = (base - offset) % t;
        int observed = (base - offset - error) % t;
        observed = (observed % t + t) % t;
        DecodeResult r = code.decode(observed, expected, m);
        ASSERT_TRUE(r.valid);
        // The code only sees the error modulo its period: residues
        // within +/-m decode to a (possibly wrong) correction, the
        // m+1 alias is detected-uncorrectable, residue 0 is silent.
        int diff = ((error % t) + t) % t;
        if (diff == 0) {
            EXPECT_FALSE(r.detected) << "error " << error;
            if (error == 0) {
                EXPECT_TRUE(r.ok());
            }
        } else if (diff <= m) {
            EXPECT_TRUE(r.detected);
            ASSERT_TRUE(r.correctable);
            EXPECT_EQ(r.step_error, diff);
            if (std::abs(error) <= m) {
                EXPECT_EQ(r.step_error, error);
            }
        } else if (t - diff <= m) {
            EXPECT_TRUE(r.detected);
            ASSERT_TRUE(r.correctable);
            EXPECT_EQ(r.step_error, -(t - diff));
            if (std::abs(error) <= m) {
                EXPECT_EQ(r.step_error, error);
            }
        } else {
            EXPECT_TRUE(r.detected);
            EXPECT_FALSE(r.correctable);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CyclicDecodeSweep,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(-3, -2, -1, 0, 1, 2, 3)));

TEST(CyclicCode, AliasingBeyondDetectionIsSilent)
{
    // An error of exactly the period decodes as "no error": this is
    // the SDC channel the reliability model charges for.
    CyclicCode code(2);
    int t = code.period();
    DecodeResult r = code.decode((8 - t) % t, 8 % t, 1);
    EXPECT_TRUE(r.valid);
    EXPECT_FALSE(r.detected);
}

TEST(CyclicCode, PhaseOfRejectsRawNonBinaryLaneValues)
{
    // A destroyed domain can carry any raw lane value, not just the
    // well-formed X: the window must be unreadable, never aliased to
    // a phase.
    CyclicCode code(3);
    for (int raw : {2, 3, 0x7f}) {
        std::vector<Bit> bits = windowAt(code, 2);
        bits[0] = static_cast<Bit>(raw);
        EXPECT_EQ(code.phaseOf(bits), -1) << "raw " << raw;
    }
}

TEST(CyclicCode, DecodeRejectsOutOfRangeObservedPhases)
{
    // phaseOf reports failure as -1, but a caller bug (or future
    // alternate window reader) could hand decode any integer: every
    // value outside [0, T) must stay detected-uncorrectable instead
    // of feeding the residue arithmetic.
    CyclicCode code(2);
    for (int observed : {-1, -7, 4, 5, 100}) {
        DecodeResult r = code.decode(observed, 1, 1);
        EXPECT_FALSE(r.valid) << observed;
        EXPECT_TRUE(r.detected) << observed;
        EXPECT_FALSE(r.correctable) << observed;
        EXPECT_EQ(r.step_error, 0) << observed;
    }
}

TEST(CyclicCode, DecodeRefusesStrengthBeyondPeriod)
{
    // m = 1 needs period >= 4: the SED code (T = 2) cannot host it.
    CyclicCode code(1);
    EXPECT_DEATH(code.decode(0, 0, 1), "period");
}

TEST(CyclicCode, HeadAndTailPadWindowsAreDetectedNotDecoded)
{
    // Regression for the latent window edge: a stripe shifted so far
    // that undefined pad domains (stripe head/tail) enter the code
    // window must yield an unreadable phase and a detected,
    // uncorrectable decode — the old behaviour let a window with
    // defined neighbours alias to a valid phase.
    CyclicCode code(2);
    const int t = code.period();
    for (int undefined_at = 0; undefined_at < code.window();
         ++undefined_at) {
        for (int p = 0; p < t; ++p) {
            std::vector<Bit> bits = windowAt(code, p);
            bits[static_cast<size_t>(undefined_at)] = Bit::X;
            const int phase = code.phaseOf(bits);
            EXPECT_EQ(phase, -1);
            const DecodeResult r = code.decode(phase, p, 1);
            EXPECT_FALSE(r.valid);
            EXPECT_TRUE(r.detected);
            EXPECT_FALSE(r.correctable);
        }
    }
}

/** decode() as written with the double modulo, kept as reference. */
DecodeResult
referenceDecode(int period, int observed, int expected, int m)
{
    DecodeResult res;
    if (observed < 0 || observed >= period) {
        res.detected = true;
        return res;
    }
    res.valid = true;
    const int t = period;
    const int diff = ((expected - observed) % t + t) % t;
    if (diff == 0)
        return res;
    res.detected = true;
    if (diff <= m) {
        res.correctable = true;
        res.step_error = diff;
    } else if (t - diff <= m) {
        res.correctable = true;
        res.step_error = -(t - diff);
    }
    return res;
}

void
expectSameDecode(const CyclicCode &code, int observed, int expected,
                 int m)
{
    const DecodeResult got = code.decode(observed, expected, m);
    const DecodeResult want =
        referenceDecode(code.period(), observed, expected, m);
    const bool same = got.valid == want.valid &&
                      got.detected == want.detected &&
                      got.correctable == want.correctable &&
                      got.step_error == want.step_error;
    EXPECT_TRUE(same) << "w " << code.window() << " observed "
                      << observed << " expected " << expected << " m "
                      << m;
}

TEST(CyclicCode, MaskedResiduesMatchDoubleModulo)
{
    // decode() and bitAt() reduce by T = 2^w with a mask. Against the
    // double modulo: every (expected, observed) pair in [-3T, 3T] for
    // w <= 8; for wider windows every expected against a fixed
    // observed set (edges plus seeded draws) and every observed
    // against the same expected set. Both the largest strength the
    // period allows and m = 1 are decoded.
    Rng rng(1701);
    for (int w = 1; w <= 16; ++w) {
        const CyclicCode code(w);
        const int t = code.period();
        std::vector<int> strengths = {(t - 2) / 2};
        if (t >= 4)
            strengths.push_back(1);
        for (int64_t i = -3 * t; i <= 3 * t; ++i) {
            const int64_t ref = ((i % t) + t) % t;
            if (code.bitAt(i) != code.bitAt(ref)) {
                ADD_FAILURE() << "bitAt w " << w << " index " << i;
                break;
            }
        }
        if (w <= 8) {
            for (int m : strengths)
                for (int e = -3 * t; e <= 3 * t; ++e)
                    for (int o = -3 * t; o <= 3 * t; ++o)
                        expectSameDecode(code, o, e, m);
            continue;
        }
        std::vector<int> probes = {-3 * t, -1, 0, 1, t / 2, t - 1, t,
                                   3 * t};
        for (int k = 0; k < 16; ++k)
            probes.push_back(
                static_cast<int>(rng.uniformInt(6 * t + 1)) - 3 * t);
        for (int m : strengths)
            for (int x = -3 * t; x <= 3 * t; ++x)
                for (int p : probes) {
                    expectSameDecode(code, p, x, m);
                    expectSameDecode(code, x, p, m);
                }
    }
}

TEST(CyclicCode, MiscorrectionBeyondStrength)
{
    // A +3 error with SECDED (T = 4) has residue 3 == -1 mod 4, so
    // the decoder proposes -1: a miscorrection, not a detection of 3.
    CyclicCode code(2);
    int base = 40;
    int offset = 0;
    int expected = (base - offset) % 4;
    int observed = (base - offset - 3 % 4 + 8) % 4;
    DecodeResult r = code.decode(observed, expected, 1);
    ASSERT_TRUE(r.valid);
    EXPECT_TRUE(r.detected);
    ASSERT_TRUE(r.correctable);
    EXPECT_EQ(r.step_error, -1);
}

} // namespace
} // namespace rtm
