/**
 * @file
 * Exhaustive property tests for the shift-code family.
 *
 * The two codecs behind the lm-pos and del-ins-k schemes make exact
 * claims ("every |e| <= m offset decodes back to e", "a readout with
 * a <= k deletion/insertion burst reconstructs the exact data or
 * reports DUE, never silently") over parameter spaces small enough to
 * enumerate completely. These tests do exactly that:
 *
 *  - every valid limited-magnitude configuration with w <= 4, m <= 3
 *    is swept over every window phase x every error magnitude up to a
 *    full period, checking the decoder and the ShiftCode::classify
 *    contract agree on every single residue;
 *  - every small del-ins configuration (k <= 2, short tracks) is
 *    swept over every codeword x every single-burst error pattern
 *    (all burst times x all |delta| <= k), asserting the decoder
 *    returns the exact injected offset and data; beyond-radius bursts
 *    must be flagged detected-uncorrectable, never miscorrected.
 *
 * The safety invariant asserted on *every* decode in every sweep:
 * an accepted reconstruction equals the encoded truth bit for bit.
 * There is no input in these spaces for which the decoder silently
 * returns wrong data.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include "codec/cyclic.hh"
#include "codec/del_ins.hh"
#include "codec/shift_code.hh"

namespace rtm
{
namespace
{

// ---------------------------------------------------------------------
// Limited-magnitude position codes: exhaustive residue sweep.
// ---------------------------------------------------------------------

/** All (w, m) pairs with w <= 4, m <= 3 and 2m + 2 <= 2^w. */
std::vector<std::pair<int, int>>
validLmConfigs()
{
    std::vector<std::pair<int, int>> configs;
    for (int w = 1; w <= 4; ++w)
        for (int m = 0; m <= 3; ++m)
            if (2 * m + 2 <= (1 << w))
                configs.emplace_back(w, m);
    return configs;
}

TEST(LmPosExhaustive, ConfigSpaceIsTheExpectedOne)
{
    // Pin the enumeration so a constraint change is a visible diff:
    // w=1 admits only m=0, w=2 adds m=1, w=3 and w=4 reach m=3.
    const auto configs = validLmConfigs();
    const std::vector<std::pair<int, int>> expected = {
        {1, 0}, {2, 0}, {2, 1}, {3, 0}, {3, 1}, {3, 2}, {3, 3},
        {4, 0}, {4, 1}, {4, 2}, {4, 3},
    };
    EXPECT_EQ(configs, expected);
}

TEST(LmPosExhaustive, EveryPhaseEveryErrorDecodesPerContract)
{
    for (auto [w, m] : validLmConfigs()) {
        const CyclicCode cyc(w);
        const int t = cyc.period();
        for (int base = 0; base < t; ++base) {
            for (int e = -t; e <= t; ++e) {
                const int observed = ((base - e) % t + t) % t;
                const DecodeResult r = cyc.decode(observed, base, m);
                ASSERT_TRUE(r.valid);
                const int diff = ((e % t) + t) % t;
                const std::string ctx = "w=" + std::to_string(w) +
                                        " m=" + std::to_string(m) +
                                        " base=" +
                                        std::to_string(base) +
                                        " e=" + std::to_string(e);
                if (diff == 0) {
                    // Residue 0: no error, or a full-period alias
                    // (the codec's one silent channel).
                    EXPECT_FALSE(r.detected) << ctx;
                } else if (diff <= m) {
                    EXPECT_TRUE(r.detected) << ctx;
                    ASSERT_TRUE(r.correctable) << ctx;
                    EXPECT_EQ(r.step_error, diff) << ctx;
                } else if (t - diff <= m) {
                    EXPECT_TRUE(r.detected) << ctx;
                    ASSERT_TRUE(r.correctable) << ctx;
                    EXPECT_EQ(r.step_error, -(t - diff)) << ctx;
                } else {
                    EXPECT_TRUE(r.detected) << ctx;
                    EXPECT_FALSE(r.correctable) << ctx;
                }
                // Within the claimed radius the inferred error is the
                // injected error itself, never an alias.
                if (e != 0 && std::abs(e) <= m) {
                    ASSERT_TRUE(r.correctable) << ctx;
                    EXPECT_EQ(r.step_error, e) << ctx;
                }
            }
        }
    }
}

TEST(LmPosExhaustive, ClassifyMatchesTheDecoderOnEveryResidue)
{
    for (auto [w, m] : validLmConfigs()) {
        const CyclicCode cyc(w);
        const int t = cyc.period();
        const ShiftCode code{CodeKind::Cyclic, m, t};
        for (int e = -2 * t; e <= 2 * t; ++e) {
            const ErrorClass cls = code.classify(e);
            const int observed = ((0 - e) % t + t) % t;
            const DecodeResult r = cyc.decode(observed, 0, m);
            const std::string ctx = "w=" + std::to_string(w) +
                                    " m=" + std::to_string(m) +
                                    " e=" + std::to_string(e);
            switch (cls) {
              case ErrorClass::Ok:
                EXPECT_EQ(e, 0) << ctx;
                EXPECT_TRUE(r.ok()) << ctx;
                break;
              case ErrorClass::Silent:
                EXPECT_NE(e, 0) << ctx;
                EXPECT_FALSE(r.detected) << ctx;
                break;
              case ErrorClass::Corrected:
                ASSERT_TRUE(r.correctable) << ctx;
                EXPECT_EQ(r.step_error, e) << ctx;
                break;
              case ErrorClass::Miscorrected:
                ASSERT_TRUE(r.correctable) << ctx;
                EXPECT_NE(r.step_error, e) << ctx;
                break;
              case ErrorClass::Ambiguous:
                EXPECT_TRUE(r.detected) << ctx;
                EXPECT_FALSE(r.correctable) << ctx;
                break;
            }
        }
    }
}

TEST(LmPosExhaustive, DefaultLmPosConfigCorrectsWiderThanSecded)
{
    // The headline of the construction: w=3 corrects +/-2 where the
    // paper's SECDED (w=2) corrects only +/-1 and miscorrects +2.
    const SchemeRow &row = schemeRow(Scheme::LmPos);
    const ShiftCode secded{CodeKind::Cyclic, 1, 4};
    const ShiftCode lmpos{row.code, row.radius, row.period()};
    EXPECT_EQ(secded.classify(2), ErrorClass::Ambiguous);
    EXPECT_EQ(secded.classify(3), ErrorClass::Miscorrected);
    EXPECT_EQ(lmpos.classify(2), ErrorClass::Corrected);
    EXPECT_EQ(lmpos.classify(-2), ErrorClass::Corrected);
    EXPECT_EQ(lmpos.classify(3), ErrorClass::Ambiguous);
    EXPECT_EQ(lmpos.classify(-3), ErrorClass::Ambiguous);
}

TEST(LmPosShiftCode, NarrowWindowIsRejected)
{
    EXPECT_DEATH(ShiftCode(CodeKind::Cyclic, 1, 2), "too narrow");
    EXPECT_DEATH(ShiftCode(CodeKind::Cyclic, 2, 4), "too narrow");
}

// ---------------------------------------------------------------------
// Deletion/insertion codes: exhaustive codeword x burst sweep.
// ---------------------------------------------------------------------

/** Payload `value` spelled as payloadBits() bits, LSB first. */
std::vector<Bit>
payloadFromValue(const DelInsCode &code, uint64_t value)
{
    std::vector<Bit> payload(code.payloadBits(), Bit::Zero);
    for (int i = 0; i < code.payloadBits(); ++i)
        if (value & (1ull << i))
            payload[i] = Bit::One;
    return payload;
}

struct DelInsCase
{
    int tracks;
    int len;
    int k;
};

/**
 * The exhaustively enumerable del-ins spaces: every k <= 2 with short
 * tracks, both single- and multi-head. All payloads of every listed
 * configuration are swept (the payload space is <= 2^8).
 */
std::vector<DelInsCase>
exhaustiveDelInsCases()
{
    return {
        {1, 6, 1},  // 3 data bits
        {2, 6, 1},  // 6 data bits
        {1, 8, 2},  // 2 data bits
        {2, 6, 2},  // 4 data bits
        {2, 8, 1},  // 8 data bits
        {3, 8, 2},  // 6 data bits
    };
}

/**
 * Drive one (codeword, burst_time, delta) case through decode() and
 * assert the contract. `in_band` bursts (those striking before head 0
 * exhausts its own track) must decode to the exact offset and data.
 * Later bursts only touch flush reads; the decoder may then see a
 * shorter sentinel run and settle on a smaller offset — the remainder
 * stays latent for the next readout — but any accepted reconstruction
 * must still be the exact data. Nothing may ever be silently wrong.
 */
void
checkBurstCase(const DelInsCode &code,
               const std::vector<std::vector<Bit>> &tracks,
               const std::vector<Bit> &payload, int burst_time,
               int delta)
{
    const auto streams =
        code.referenceStreams(tracks, burst_time, delta);
    const DelInsCode::Result res = code.decode(streams);
    const std::string ctx =
        "h=" + std::to_string(code.tracks()) +
        " L=" + std::to_string(code.trackLen()) +
        " k=" + std::to_string(code.strength()) +
        " tau=" + std::to_string(burst_time) +
        " delta=" + std::to_string(delta);
    ASSERT_TRUE(res.status.valid) << ctx;

    const bool accepted = res.status.ok() || res.status.correctable;
    if (accepted) {
        // The safety invariant: an accepted decode is the truth.
        EXPECT_EQ(res.tracks, tracks) << ctx;
        EXPECT_EQ(code.extractPayload(res.tracks), payload) << ctx;
    }

    const bool in_band =
        burst_time <= code.trackLen() - std::abs(delta);
    // Exact in-band correction is a theorem at k = 1: the single
    // interleave class is a genuine VT code, whose deletion balls are
    // disjoint across codewords. At k >= 2 a burst can be genuinely
    // ambiguous for some codewords (several burst positions permute
    // the streams into distinct valid codewords — e.g. inside runs of
    // equal bits whose syndromes collide); those must surface as DUE,
    // and the safety check above already ruled out silent acceptance.
    const bool exact_guaranteed = code.strength() == 1;
    if (delta == 0) {
        EXPECT_TRUE(res.status.ok()) << ctx;
        EXPECT_EQ(res.status.step_error, 0) << ctx;
    } else if (std::abs(delta) <= code.strength()) {
        if (in_band && exact_guaranteed) {
            EXPECT_TRUE(res.status.detected) << ctx;
            ASSERT_TRUE(res.status.correctable) << ctx;
            EXPECT_EQ(res.status.step_error, delta) << ctx;
        } else if (in_band) {
            // Ambiguity-prone configuration: still never silent —
            // either the exact correction or a detected episode.
            EXPECT_TRUE(res.status.detected) << ctx;
            if (res.status.correctable) {
                EXPECT_EQ(res.status.step_error, delta) << ctx;
            }
        }
        // Out-of-band bursts: accepted-with-exact-data or DUE are
        // both within contract; silence was excluded above.
    } else {
        // Beyond the claimed radius: detection is mandatory when the
        // burst touched the data window; correction would be fine
        // only if it reproduced the exact data, which the acceptance
        // check above already enforces.
        if (in_band) {
            EXPECT_TRUE(res.status.detected) << ctx;
            EXPECT_FALSE(res.status.correctable) << ctx;
        }
    }
}

TEST(DelInsExhaustive, EveryCodewordEveryBurstDecodesPerContract)
{
    for (const DelInsCase &c : exhaustiveDelInsCases()) {
        DelInsCode code(c.tracks, c.len, c.k);
        ASSERT_LE(code.payloadBits(), 8)
            << "case grew beyond exhaustive range";
        const uint64_t payloads = 1ull << code.payloadBits();
        const int n = code.readoutReads();
        for (uint64_t v = 0; v < payloads; ++v) {
            const auto payload = payloadFromValue(code, v);
            const auto tracks = code.encode(payload);
            for (int tau = 0; tau < n; ++tau)
                for (int delta = -c.k; delta <= c.k; ++delta)
                    checkBurstCase(code, tracks, payload, tau,
                                   delta);
        }
    }
}

TEST(DelInsExhaustive, BeyondRadiusBurstsAreNeverSilent)
{
    for (const DelInsCase &c : exhaustiveDelInsCases()) {
        DelInsCode code(c.tracks, c.len, c.k);
        const uint64_t payloads = 1ull << code.payloadBits();
        const int n = code.readoutReads();
        // |delta| in (k, k+2]: the first beyond-radius magnitudes the
        // flush-read budget still distinguishes.
        for (uint64_t v = 0; v < payloads; ++v) {
            const auto payload = payloadFromValue(code, v);
            const auto tracks = code.encode(payload);
            for (int tau = 0; tau < n; ++tau)
                for (int mag = c.k + 1; mag <= c.k + 2; ++mag)
                    for (int sign : {+1, -1})
                        checkBurstCase(code, tracks, payload, tau,
                                       sign * mag);
        }
    }
}

TEST(DelInsExhaustive, EveryCodewordSatisfiesItsSyndromes)
{
    for (const DelInsCase &c : exhaustiveDelInsCases()) {
        DelInsCode code(c.tracks, c.len, c.k);
        const uint64_t payloads = 1ull << code.payloadBits();
        for (uint64_t v = 0; v < payloads; ++v) {
            const auto payload = payloadFromValue(code, v);
            const auto tracks = code.encode(payload);
            for (const auto &track : tracks) {
                EXPECT_TRUE(code.trackSyndromesOk(track));
                EXPECT_EQ(static_cast<int>(track.size()),
                          code.trackLen());
            }
            // encode/extract round-trip.
            EXPECT_EQ(code.extractPayload(tracks), payload);
        }
    }
}

TEST(DelInsCode, GeometryAndAccounting)
{
    DelInsCode code(2, 8, 2);
    EXPECT_EQ(code.flushReads(), 6);
    EXPECT_EQ(code.readoutReads(), 14);
    // L=8, k=2: classes of length 4 need r=3 check bits each.
    EXPECT_EQ(code.checkBitsPerTrack(), 6);
    EXPECT_EQ(code.dataBitsPerTrack(), 2);
    EXPECT_EQ(code.payloadBits(), 4);
    int checks = 0;
    for (int p = 0; p < code.trackLen(); ++p)
        checks += code.isCheckPosition(p) ? 1 : 0;
    EXPECT_EQ(checks, code.checkBitsPerTrack());
}

TEST(DelInsCode, AllZeroPayloadEncodesToAllZeroTracks)
{
    DelInsCode code(2, 8, 2);
    const auto tracks =
        code.encode(payloadFromValue(code, 0));
    for (const auto &track : tracks)
        for (Bit b : track)
            EXPECT_EQ(b, Bit::Zero);
}

TEST(DelInsCode, MalformedStreamsAreInvalid)
{
    DelInsCode code(2, 8, 1);
    const auto tracks = code.encode(payloadFromValue(code, 0x2d));
    auto streams = code.referenceStreams(tracks, 0, 0);

    auto short_streams = streams;
    short_streams[1].pop_back();
    EXPECT_FALSE(code.decode(short_streams).status.valid);

    auto missing_track = streams;
    missing_track.pop_back();
    EXPECT_FALSE(code.decode(missing_track).status.valid);
}

TEST(DelInsCode, CorruptedDataReadIsNeverAccepted)
{
    // Flip one observed in-track bit (a read fault, not a position
    // error): cross-head re-reads and the VT syndromes must refuse
    // every candidate rather than accept a wrong reconstruction.
    DelInsCode code(2, 8, 1);
    const auto payload = payloadFromValue(code, 0x5a);
    const auto tracks = code.encode(payload);
    const auto clean = code.referenceStreams(tracks, 0, 0);
    for (size_t s = 0; s < clean.size(); ++s) {
        for (size_t t = 0; t < clean[s].size(); ++t) {
            if (clean[s][t] == Bit::X)
                continue;
            auto corrupted = clean;
            corrupted[s][t] = corrupted[s][t] == Bit::One
                                  ? Bit::Zero
                                  : Bit::One;
            const auto res = code.decode(corrupted);
            if (res.status.ok() || res.status.correctable) {
                EXPECT_EQ(code.extractPayload(res.tracks), payload)
                    << "s=" << s << " t=" << t;
            }
        }
    }
}

TEST(DelInsCode, DegenerateParametersAreFatal)
{
    EXPECT_DEATH(DelInsCode(0, 8, 1), "track");
    EXPECT_DEATH(DelInsCode(1, 8, 0), "k >= 1");
    EXPECT_DEATH(DelInsCode(1, 2, 2), "too short");
    // L=3, k=1 needs 2 check bits, leaving 1 data bit - legal; L=2
    // would leave none.
    EXPECT_DEATH(DelInsCode(1, 3, 2), "too short|no data");
}

TEST(DelInsShiftCode, Classify)
{
    const ShiftCode code{CodeKind::DelIns, 2, 0};
    EXPECT_EQ(code.classify(0), ErrorClass::Ok);
    for (int e : {-2, -1, 1, 2})
        EXPECT_EQ(code.classify(e), ErrorClass::Corrected) << e;
    for (int e : {-5, -4, -3, 3, 4, 5})
        EXPECT_EQ(code.classify(e), ErrorClass::Ambiguous) << e;
    EXPECT_DEATH(ShiftCode(CodeKind::DelIns, 0, 0), "k >= 1");
}

} // namespace
} // namespace rtm
