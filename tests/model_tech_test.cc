/**
 * @file
 * Unit tests for the technology parameter tables (paper Tables 4/5)
 * and the scheme table.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "codec/layout.hh"
#include "model/tech.hh"
#include "sim/experiment.hh"

namespace rtm
{
namespace
{

TEST(Tech, Table4Capacities)
{
    EXPECT_EQ(sramL3().capacity_bytes, 4ull << 20);
    EXPECT_EQ(sttramL3().capacity_bytes, 32ull << 20);
    EXPECT_EQ(racetrackL3().capacity_bytes, 128ull << 20);
    // The whole point of racetrack: ~32x SRAM capacity at iso-area.
    EXPECT_EQ(racetrackL3().capacity_bytes,
              32 * sramL3().capacity_bytes);
}

TEST(Tech, Table4Latencies)
{
    EXPECT_EQ(sramL3().read_latency, 24u);
    EXPECT_EQ(sramL3().write_latency, 22u);
    EXPECT_EQ(sttramL3().read_latency, 27u);
    EXPECT_EQ(sttramL3().write_latency, 41u);
    EXPECT_EQ(racetrackL3().read_latency, 24u);
    EXPECT_EQ(racetrackL3().write_latency, 24u);
    EXPECT_EQ(racetrackL3().shift_latency_per_step, 4u);
}

TEST(Tech, Table4Energies)
{
    EXPECT_DOUBLE_EQ(racetrackL3().shift_energy_per_step, nJ(1.331));
    EXPECT_DOUBLE_EQ(sttramL3().write_energy, nJ(2.093));
    // STT-RAM writes cost more than reads; SRAM leakage dominates
    // all other technologies.
    EXPECT_GT(sttramL3().write_energy, sttramL3().read_energy);
    EXPECT_GT(sramL3().leakage_watts, sttramL3().leakage_watts);
    EXPECT_GT(sramL3().leakage_watts, racetrackL3().leakage_watts);
}

TEST(Tech, IdealRacetrackDropsShiftCostsOnly)
{
    TechParams rm = racetrackL3();
    TechParams ideal = racetrackIdealL3();
    EXPECT_EQ(ideal.shift_latency_per_step, 0u);
    EXPECT_DOUBLE_EQ(ideal.shift_energy_per_step, 0.0);
    EXPECT_EQ(ideal.read_latency, rm.read_latency);
    EXPECT_EQ(ideal.capacity_bytes, rm.capacity_bytes);
}

TEST(Tech, L3ForDispatch)
{
    EXPECT_EQ(l3For(MemTech::SRAM).tech, MemTech::SRAM);
    EXPECT_EQ(l3For(MemTech::STTRAM).tech, MemTech::STTRAM);
    EXPECT_EQ(l3For(MemTech::Racetrack).tech, MemTech::Racetrack);
    EXPECT_EQ(l3For(MemTech::RacetrackIdeal).tech,
              MemTech::RacetrackIdeal);
}

TEST(Tech, UpperLevelsAndDram)
{
    EXPECT_EQ(l1Params().read_latency, 1u);
    EXPECT_EQ(l2Params().read_latency, 7u);
    EXPECT_EQ(dramParams().access_latency, 100u);
    EXPECT_DOUBLE_EQ(dramParams().access_energy, nJ(38.10));
}

TEST(Tech, Names)
{
    EXPECT_STREQ(memTechName(MemTech::SRAM), "SRAM");
    EXPECT_STREQ(memTechName(MemTech::Racetrack), "RM");
    EXPECT_STREQ(schemeName(Scheme::PeccSAdaptive),
                 "p-ECC-S adaptive");
    EXPECT_STREQ(schemeName(Scheme::PeccO), "SECDED p-ECC-O");
}

TEST(Tech, Table5Overheads)
{
    ProtectionOverheads pecc = overheadsFor(Scheme::SecdedPecc);
    EXPECT_DOUBLE_EQ(pecc.detect_time, ns(0.34));
    EXPECT_DOUBLE_EQ(pecc.detect_energy, pJ(3.73));
    EXPECT_DOUBLE_EQ(pecc.correct_time, ns(1.34));
    EXPECT_DOUBLE_EQ(pecc.cell_area_overhead, 0.176);

    ProtectionOverheads o = overheadsFor(Scheme::PeccO);
    EXPECT_DOUBLE_EQ(o.cell_area_overhead, 0.157);
    EXPECT_GT(o.correct_energy, pecc.correct_energy);

    ProtectionOverheads adaptive =
        overheadsFor(Scheme::PeccSAdaptive);
    // The adaptive controller is roughly twice the plain one.
    EXPECT_NEAR(adaptive.controller_area_um2 /
                    overheadsFor(Scheme::PeccSWorst)
                        .controller_area_um2,
                2.0, 0.1);
    EXPECT_DOUBLE_EQ(overheadsFor(Scheme::Baseline).detect_energy,
                     0.0);
}

// --- scheme table ----------------------------------------------------
//
// The scheme table replaced one switch (or hand-built config) per
// layer. Each replaced body is kept below verbatim as the reference,
// renamed ref*; only return statements whose type no longer exists
// are mapped (noted at each), and named constants the bodies used are
// spelled out as the literals they held.

const char *
refSchemeName(Scheme scheme)
{
    switch (scheme) {
      case Scheme::Baseline: return "Baseline";
      case Scheme::Sts: return "STS";
      case Scheme::SedPecc: return "SED p-ECC";
      case Scheme::SecdedPecc: return "SECDED p-ECC";
      case Scheme::PeccO: return "SECDED p-ECC-O";
      case Scheme::PeccSWorst: return "p-ECC-S worst";
      case Scheme::PeccSAdaptive: return "p-ECC-S adaptive";
      case Scheme::LmPos: return "lm-pos";
      case Scheme::DelIns: return "del-ins-k";
    }
    return "?";
}

/** The former enumTokens(Scheme) list: every enumerator once. */
const std::vector<std::pair<Scheme, std::string>> kRefTokens = {
    {Scheme::Baseline, "baseline"},
    {Scheme::Sts, "sts"},
    {Scheme::SedPecc, "sed"},
    {Scheme::SecdedPecc, "secded"},
    {Scheme::PeccO, "pecc-o"},
    {Scheme::PeccSWorst, "worst"},
    {Scheme::PeccSAdaptive, "adaptive"},
    {Scheme::LmPos, "lm-pos"},
    {Scheme::DelIns, "del-ins-k"},
};

int
refSchemeCorrectionStrength(Scheme scheme)
{
    switch (scheme) {
      case Scheme::Baseline:
      case Scheme::Sts:
        return -1; // no code at all
      case Scheme::SedPecc:
        return 0;
      case Scheme::SecdedPecc:
      case Scheme::PeccO:
      case Scheme::PeccSWorst:
      case Scheme::PeccSAdaptive:
        return 1;
      case Scheme::LmPos:
        return 2; // w = 3 window, T = 8 >= 2m + 2
      case Scheme::DelIns:
        return 2; // k = 2 deletions/insertions per readout
    }
    return -1;
}

ProtectionOverheads
refOverheadsFor(Scheme scheme)
{
    // Paper Table 5 (45 nm synthesis).
    ProtectionOverheads o;
    switch (scheme) {
      case Scheme::Baseline:
        break;
      case Scheme::Sts:
        o.detect_time = ns(0.82);
        o.detect_energy = pJ(1.31);
        o.correct_time = ns(0.82);
        o.correct_energy = pJ(1.31);
        o.controller_area_um2 = 1.94;
        break;
      case Scheme::SedPecc:
      case Scheme::SecdedPecc:
        o.detect_time = ns(0.34);
        o.detect_energy = pJ(3.73);
        o.correct_time = ns(1.34);
        o.correct_energy = pJ(6.16);
        o.cell_area_overhead = 0.176;
        o.controller_area_um2 = 54.0;
        break;
      case Scheme::PeccO:
        o.detect_time = ns(0.34);
        o.detect_energy = pJ(3.74);
        o.correct_time = ns(1.34);
        o.correct_energy = pJ(9.90);
        o.cell_area_overhead = 0.157;
        o.controller_area_um2 = 54.0;
        break;
      case Scheme::PeccSWorst:
        o.detect_time = ns(0.38);
        o.detect_energy = pJ(3.75);
        o.correct_time = ns(1.35);
        o.correct_energy = pJ(6.17);
        o.cell_area_overhead = 0.176;
        o.controller_area_um2 = 54.3;
        break;
      case Scheme::PeccSAdaptive:
        o.detect_time = ns(0.61);
        o.detect_energy = pJ(3.86);
        o.correct_time = ns(1.37);
        o.correct_energy = pJ(6.19);
        o.cell_area_overhead = 0.176;
        o.controller_area_um2 = 109.4;
        break;
      case Scheme::LmPos:
        o.detect_time = ns(0.38);
        o.detect_energy = pJ(4.10);
        o.correct_time = ns(1.34);
        o.correct_energy = pJ(6.80);
        o.cell_area_overhead = 0.185;
        o.controller_area_um2 = 61.0;
        break;
      case Scheme::DelIns:
        o.detect_time = ns(0.34);
        o.detect_energy = pJ(4.40);
        o.correct_time = ns(1.50);
        o.correct_energy = pJ(8.20);
        o.cell_area_overhead = 0.130;
        o.controller_area_um2 = 88.0;
        break;
    }
    return o;
}

/** RmBank's former policyFor. */
ShiftPolicy
refPolicyFor(Scheme scheme)
{
    switch (scheme) {
      case Scheme::Baseline:
      case Scheme::Sts:
      case Scheme::SedPecc:
      case Scheme::SecdedPecc:
      case Scheme::LmPos:
      case Scheme::DelIns:
        return ShiftPolicy::Unconstrained;
      case Scheme::PeccO:
        return ShiftPolicy::StepByStep;
      case Scheme::PeccSWorst:
        return ShiftPolicy::WorstCase;
      case Scheme::PeccSAdaptive:
        return ShiftPolicy::Adaptive;
    }
    return ShiftPolicy::Unconstrained;
}

/** RmBank's former checkSecondsFor. */
double
refCheckSecondsFor(Scheme scheme)
{
    return (scheme == Scheme::Baseline || scheme == Scheme::Sts)
               ? 0.0
               : refOverheadsFor(Scheme::SecdedPecc).detect_time;
}

/** The former test in RmBank::shiftOpEnergy. */
bool
refPaysDetectEnergy(Scheme scheme)
{
    return scheme != Scheme::Baseline && scheme != Scheme::Sts;
}

/** mem/protection.cc's former variantFor. */
PeccVariant
refVariantFor(Scheme scheme)
{
    switch (scheme) {
      case Scheme::Baseline:
      case Scheme::Sts:
        return PeccVariant::None;
      case Scheme::PeccO:
        return PeccVariant::OverheadRegion;
      case Scheme::DelIns:
        return PeccVariant::DelIns;
      default:
        return PeccVariant::Standard;
    }
}

/** What the former makeShiftCode built: its class and arguments. */
struct RefCode
{
    CodeKind kind;
    int window; //!< CyclicPositionCode window_bits; 0 otherwise
    int radius; //!< correct_strength / k; -1 for nullptr
};

RefCode
refMakeShiftCode(Scheme scheme)
{
    // Returns map nullptr / make_shared<CyclicPositionCode>(w, m) /
    // make_shared<DelInsShiftCode>(k) onto RefCode.
    switch (scheme) {
      case Scheme::Baseline:
      case Scheme::Sts:
        return {CodeKind::None, 0, -1};
      case Scheme::SedPecc:
        return {CodeKind::Cyclic, 1, 0};
      case Scheme::SecdedPecc:
      case Scheme::PeccO:
      case Scheme::PeccSWorst:
      case Scheme::PeccSAdaptive:
        return {CodeKind::Cyclic, 2, 1};
      case Scheme::LmPos:
        return {CodeKind::Cyclic, 3 /* kLmPosWindow */,
                2 /* kLmPosCorrect */};
      case Scheme::DelIns:
        return {CodeKind::DelIns, 0, 2 /* kDelInsStrength */};
    }
    return {CodeKind::None, 0, -1};
}

/** The former stressSchemeConfig with its private drill table. */
bool
refStressSchemeConfig(const std::string &token, Scheme *scheme,
                      PeccConfig *config)
{
    config->num_segments = 2;
    struct Drill
    {
        Scheme scheme;
        int correct;
        PeccVariant variant;
    };
    static constexpr Drill kDrills[] = {
        {Scheme::Baseline, 1, PeccVariant::None},
        {Scheme::SedPecc, 0, PeccVariant::Standard},
        {Scheme::PeccO, 1, PeccVariant::OverheadRegion},
        {Scheme::SecdedPecc, 1, PeccVariant::Standard},
        {Scheme::LmPos, 2 /* kLmPosCorrect */, PeccVariant::Standard},
        {Scheme::DelIns, 2 /* kDelInsStrength */, PeccVariant::DelIns},
    };
    Scheme s;
    if (!enumFromToken(token, &s))
        return false;
    for (const Drill &d : kDrills) {
        if (d.scheme != s)
            continue;
        *scheme = s;
        config->correct = d.correct;
        config->variant = d.variant;
        if (s == Scheme::LmPos)
            config->window_ports = 3; // kLmPosWindow
        return true;
    }
    return false;
}

/** protectionDomainError's former hand-built config. */
PeccConfig
refDomainConfig(Scheme scheme, int seg_len, int frames_per_group,
                int codeword_frames, bool two_tier)
{
    PeccConfig cfg;
    cfg.num_segments = std::max(frames_per_group / seg_len, 1);
    cfg.seg_len = seg_len;
    cfg.correct = std::max(refSchemeCorrectionStrength(scheme), 0);
    cfg.variant = refVariantFor(scheme);
    cfg.codeword_frames = codeword_frames;
    cfg.two_tier = two_tier;
    return cfg;
}

TEST(SchemeTable, MatchesTheCodeItReplaces)
{
    // One row per enumerator, in enumerator order, unique tokens.
    ASSERT_EQ(std::size(kSchemeRows), kRefTokens.size());
    EXPECT_TRUE(schemeRowsAreIndexed());
    std::set<std::string> tokens;
    for (const SchemeRow &row : kSchemeRows)
        EXPECT_TRUE(tokens.insert(row.token).second) << row.token;
    const auto emitted = enumTokens(Scheme{});
    ASSERT_EQ(emitted.size(), kRefTokens.size());

    for (size_t i = 0; i < kRefTokens.size(); ++i) {
        const Scheme s = kRefTokens[i].first;
        const SchemeRow &row = schemeRow(s);
        SCOPED_TRACE(kRefTokens[i].second);
        EXPECT_EQ(row.scheme, s);
        EXPECT_EQ(row.token, kRefTokens[i].second);
        EXPECT_EQ(emitted[i].value, s);
        EXPECT_EQ(std::string(emitted[i].token), kRefTokens[i].second);
        EXPECT_STREQ(row.name, refSchemeName(s));
        EXPECT_STREQ(schemeName(s), refSchemeName(s));

        const RefCode code = refMakeShiftCode(s);
        EXPECT_EQ(row.code, code.kind);
        EXPECT_EQ(row.period(),
                  code.kind == CodeKind::Cyclic ? 1 << code.window : 0);
        EXPECT_EQ(row.radius, refSchemeCorrectionStrength(s));
        EXPECT_EQ(schemeCorrectionStrength(s),
                  refSchemeCorrectionStrength(s));
        // The factory's radius was asserted equal to the strength.
        EXPECT_EQ(code.radius, refSchemeCorrectionStrength(s));

        EXPECT_EQ(row.variant, refVariantFor(s));
        EXPECT_EQ(row.policy, refPolicyFor(s));
        EXPECT_EQ(row.in_path_check, refPaysDetectEnergy(s));
        EXPECT_EQ(row.in_path_check ? kInPathCheckSeconds : 0.0,
                  refCheckSecondsFor(s));

        // Table 5, bit for bit.
        const ProtectionOverheads want = refOverheadsFor(s);
        EXPECT_EQ(row.overheads.detect_time, want.detect_time);
        EXPECT_EQ(row.overheads.detect_energy, want.detect_energy);
        EXPECT_EQ(row.overheads.correct_time, want.correct_time);
        EXPECT_EQ(row.overheads.correct_energy, want.correct_energy);
        EXPECT_EQ(row.overheads.cell_area_overhead,
                  want.cell_area_overhead);
        EXPECT_EQ(row.overheads.controller_area_um2,
                  want.controller_area_um2);

        // The stress drill's construction, for every stripe length
        // it is driven at.
        for (int lseg : {2, 4, 8, 16}) {
            PeccConfig want_cfg, got_cfg;
            want_cfg.seg_len = got_cfg.seg_len = lseg;
            Scheme want_s = Scheme::SecdedPecc;
            Scheme got_s = Scheme::SecdedPecc;
            const bool drill = refStressSchemeConfig(
                kRefTokens[i].second, &want_s, &want_cfg);
            EXPECT_EQ(row.stripe_drill, drill);
            EXPECT_EQ(stressSchemeConfig(kRefTokens[i].second, &got_s,
                                         &got_cfg),
                      drill);
            if (!drill)
                continue;
            EXPECT_EQ(got_s, want_s);
            EXPECT_TRUE(peccConfigFor(s, 2, lseg) == want_cfg)
                << "lseg " << lseg;
            EXPECT_TRUE(got_cfg == want_cfg) << "lseg " << lseg;
        }

        // protectionDomainError's construction. It clamped a
        // code-less strength to 0 where the drill kept the default 1,
        // and never set lm-pos's window; the row's config takes the
        // drill's values, so those two fields are filled from it
        // before comparing. The geometry check reads neither field
        // on those schemes: its answer is the same for both configs
        // across every geometry below.
        for (int seg_len : {2, 4, 8})
            for (int fpg : {0, 8, 12, 16, 64})
                for (int f : {1, 2, 3, 4, 8, 16})
                    for (bool two_tier : {false, true}) {
                        PeccConfig want_cfg = refDomainConfig(
                            s, seg_len, fpg, f, two_tier);
                        PeccConfig got_cfg = peccConfigFor(
                            s, std::max(fpg / seg_len, 1), seg_len);
                        got_cfg.codeword_frames = f;
                        got_cfg.two_tier = two_tier;
                        EXPECT_EQ(protectionGeometryError(got_cfg, fpg),
                                  protectionGeometryError(want_cfg, fpg))
                            << seg_len << " " << fpg << " " << f;
                        if (code.kind == CodeKind::None)
                            want_cfg.correct = got_cfg.correct;
                        want_cfg.window_ports = row.window;
                        EXPECT_TRUE(got_cfg == want_cfg)
                            << seg_len << " " << fpg << " " << f;
                    }
    }
    EXPECT_EQ(kInPathCheckSeconds,
              refOverheadsFor(Scheme::SecdedPecc).detect_time);
}

} // namespace
} // namespace rtm
