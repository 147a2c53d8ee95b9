/**
 * @file
 * Protection-domain tests: policy resolution (region snapping,
 * domain lookup), the two-tier read discipline's no-outcome-change
 * contract (randomized differential against one-tier reads), the
 * spec serde for the `protection` section, and the digest guard
 * that an explicit default policy reproduces the implicit default
 * bit-for-bit.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "codec/combined.hh"
#include "mem/protection.hh"
#include "mem/rm_bank.hh"
#include "sim/experiment.hh"
#include "util/serde.hh"

namespace rtm
{
namespace
{

// ---- policy resolution ---------------------------------------------

TEST(ProtectionPolicy, DefaultResolvesToSingleDefaultDomain)
{
    ResolvedProtection rp =
        resolveProtection(ProtectionPolicy{}, 4096);
    ASSERT_EQ(rp.domains.size(), 1u);
    EXPECT_EQ(rp.domains[0], ProtectionDomain{});
    EXPECT_TRUE(rp.ranges.empty());
    EXPECT_EQ(rp.domainIndexFor(0), 0);
    EXPECT_EQ(rp.domainIndexFor(4095), 0);
}

TEST(ProtectionPolicy, RegionsSnapToCodewordBoundaries)
{
    ProtectionPolicy policy;
    policy.kind = ProtectionScopeKind::AddressRegion;
    ProtectionRegion region;
    region.begin = 0.3;
    region.end = 0.7;
    region.domain.codeword_frames = 8;
    policy.regions = {region};

    // 1000 frames: the raw bounds 300/700 are not multiples of 8.
    ResolvedProtection rp = resolveProtection(policy, 1000);
    ASSERT_EQ(rp.ranges.size(), 1u);
    const ResolvedProtection::Range &r = rp.ranges[0];
    EXPECT_EQ(r.begin % 8, 0u);
    EXPECT_EQ(r.end % 8, 0u);
    EXPECT_LT(r.begin, r.end);
    // Frames inside resolve to the pooled domain, outside to base.
    EXPECT_EQ(rp.domainFor(r.begin).codeword_frames, 8);
    EXPECT_EQ(rp.domainFor(r.end - 1).codeword_frames, 8);
    EXPECT_EQ(rp.domainIndexFor(r.begin - 1), 0);
    EXPECT_EQ(rp.domainIndexFor(r.end), 0);
}

TEST(ProtectionPolicy, DifferentiatedPolicyShape)
{
    ProtectionPolicy policy = differentiatedPolicy(8);
    EXPECT_EQ(policy.kind, ProtectionScopeKind::AddressRegion);
    ASSERT_EQ(policy.regions.size(), 1u);
    EXPECT_DOUBLE_EQ(policy.regions[0].begin, 0.25);
    EXPECT_DOUBLE_EQ(policy.regions[0].end, 1.0);
    EXPECT_EQ(policy.regions[0].domain.codeword_frames, 8);
    EXPECT_TRUE(policy.regions[0].domain.two_tier);
    EXPECT_EQ(policy.uniform, ProtectionDomain{});
}

TEST(ProtectionDomain, GeometryErrorsAreTyped)
{
    ProtectionDomain ok;
    ok.codeword_frames = 8;
    EXPECT_EQ(protectionDomainError(ok, Scheme::PeccSAdaptive, 8,
                                    64),
              "");

    ProtectionDomain odd;
    odd.codeword_frames = 3;
    EXPECT_NE(protectionDomainError(odd, Scheme::PeccSAdaptive, 8,
                                    64),
              "");

    ProtectionDomain too_big;
    too_big.codeword_frames = 16;
    EXPECT_NE(protectionDomainError(too_big, Scheme::PeccSAdaptive,
                                    8, 64),
              "");

    // Pooling needs a protecting code to boost.
    ProtectionDomain unprotected;
    unprotected.codeword_frames = 8;
    EXPECT_NE(protectionDomainError(unprotected, Scheme::Baseline,
                                    8, 64),
              "");
}

// ---- two-tier differential -----------------------------------------

PeccConfig
lineConfig(bool two_tier)
{
    PeccConfig c;
    c.num_segments = 1;
    c.seg_len = 8;
    c.correct = 1;
    c.variant = PeccVariant::Standard;
    c.two_tier = two_tier;
    return c;
}

/**
 * The two-tier contract: identical stored state, identical faults,
 * identical decode outcomes — only the tier counters may differ.
 */
TEST(TwoTierDifferential, NeverChangesDecodeOutcomes)
{
    auto base = std::make_shared<PaperCalibratedErrorModel>();
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        ScaledErrorModel model_a(base, 300.0);
        ScaledErrorModel model_b(base, 300.0);
        ProtectedLine one_tier(lineConfig(false), &model_a,
                               Rng(seed));
        ProtectedLine two_tier(lineConfig(true), &model_b,
                               Rng(seed));
        one_tier.initialize();
        two_tier.initialize();

        Rng dice(seed + 1000);
        uint64_t words[8];
        for (int idx = 0; idx < 8; ++idx) {
            words[idx] = dice.next();
            one_tier.write(idx, words[idx]);
            two_tier.write(idx, words[idx]);
        }
        uint64_t reads = 0;
        for (int op = 0; op < 300; ++op) {
            int idx = static_cast<int>(dice.uniformInt(8));
            if (dice.bernoulli(0.05)) {
                int bit = static_cast<int>(dice.uniformInt(64));
                one_tier.flipStoredBit(idx, bit);
                two_tier.flipStoredBit(idx, bit);
            }
            LineReadResult a = one_tier.read(idx);
            LineReadResult b = two_tier.read(idx);
            ++reads;
            ASSERT_EQ(a.data, b.data) << "seed " << seed << " op "
                                      << op;
            ASSERT_EQ(a.position_due, b.position_due);
            ASSERT_EQ(a.position_corrected, b.position_corrected);
            ASSERT_EQ(a.bit_status, b.bit_status);
            if (!a.ok()) {
                one_tier.initialize();
                two_tier.initialize();
                for (int j = 0; j < 8; ++j) {
                    one_tier.write(j, words[j]);
                    two_tier.write(j, words[j]);
                }
            }
        }
        // Ledger: every two-tier read resolved in exactly one tier.
        EXPECT_EQ(two_tier.edcFastReads() + two_tier.fullDecodes(),
                  reads);
        // At this fault scale both tiers must actually fire.
        EXPECT_GT(two_tier.edcFastReads(), 0u);
        EXPECT_GT(two_tier.fullDecodes(), 0u);
        EXPECT_EQ(one_tier.edcFastReads(), 0u);
    }
}

// ---- spec serde ----------------------------------------------------

ExperimentSpec
parseSpecOk(const std::string &text)
{
    JsonValue doc;
    std::string err;
    EXPECT_TRUE(JsonValue::parse(text, &doc, &err)) << err;
    ExperimentSpec spec;
    std::string diag;
    EXPECT_TRUE(experimentSpecFromJson(doc, &spec, &diag)) << diag;
    return spec;
}

std::string
parseSpecDiag(const std::string &text)
{
    JsonValue doc;
    std::string err;
    EXPECT_TRUE(JsonValue::parse(text, &doc, &err)) << err;
    ExperimentSpec spec;
    std::string diag;
    EXPECT_FALSE(experimentSpecFromJson(doc, &spec, &diag));
    EXPECT_FALSE(diag.empty());
    return diag;
}

TEST(ProtectionSpec, ExplicitDefaultSectionParsesToDefault)
{
    ExperimentSpec spec = parseSpecOk(
        R"({"name": "t", "protection": {"kind": "uniform",
            "uniform": {"codeword_frames": 1,
                        "two_tier": false}}})");
    EXPECT_EQ(spec.protection, ProtectionPolicy{});
    // The default policy is omitted on emit, so pre-existing spec
    // bytes (and their journal hashes) never change.
    EXPECT_EQ(experimentSpecToJson(spec).dump().find("protection"),
              std::string::npos);
}

TEST(ProtectionSpec, NonDefaultPolicyRoundTrips)
{
    ExperimentSpec spec;
    spec.name = "regions";
    spec.protection.kind = ProtectionScopeKind::AddressRegion;
    ProtectionRegion cold;
    cold.begin = 0.5;
    cold.end = 1.0;
    cold.domain.codeword_frames = 4;
    cold.domain.two_tier = true;
    spec.protection.regions = {cold};
    normalizeExperimentSpec(&spec);

    JsonValue doc = experimentSpecToJson(spec);
    ExperimentSpec back;
    std::string diag;
    ASSERT_TRUE(experimentSpecFromJson(doc, &back, &diag)) << diag;
    EXPECT_EQ(back, spec);
    EXPECT_EQ(experimentSpecToJson(back).dump(), doc.dump());
}

TEST(ProtectionSpec, BadCodewordFramesDiagnosticNamesThePath)
{
    const std::string diag = parseSpecDiag(
        R"({"name": "t", "protection": {"kind": "uniform",
            "uniform": {"codeword_frames": 3}}})");
    EXPECT_NE(diag.find("protection.uniform.codeword_frames"),
              std::string::npos)
        << diag;
}

TEST(ProtectionSpec, UnknownKeysRejected)
{
    parseSpecDiag(
        R"({"name": "t", "protection": {"kind": "uniform",
            "bogus": 1}})");
    parseSpecDiag(
        R"({"name": "t", "protection": {"kind": "uniform",
            "uniform": {"codeword_frames": 1, "bogus": true}}})");
}

TEST(ProtectionSpec, RegionsOnlyUnderTheRegionsKind)
{
    // A region under another kind would be dropped unread.
    const std::string diag = parseSpecDiag(
        R"({"name": "t", "protection": {"kind": "uniform",
            "regions": [{"begin": 0.25, "end": 1.0,
                         "codeword_frames": 8, "two_tier": true}]}})");
    EXPECT_NE(diag.find("protection.regions"), std::string::npos)
        << diag;
}

TEST(ProtectionSpec, OverlappingRegionsRejected)
{
    // Frames in [0.5, 0.6) would silently take the first region's
    // domain.
    const std::string diag = parseSpecDiag(
        R"({"name": "t", "protection": {"kind": "regions",
            "regions": [{"begin": 0.0, "end": 0.6,
                         "codeword_frames": 8},
                        {"begin": 0.5, "end": 1.0,
                         "codeword_frames": 2}]}})");
    EXPECT_NE(diag.find("protection.regions[1].begin"),
              std::string::npos)
        << diag;
    EXPECT_NE(diag.find("overlaps regions[0]"), std::string::npos)
        << diag;
    // Listed out of order, the later entry is the one named.
    const std::string reversed = parseSpecDiag(
        R"({"name": "t", "protection": {"kind": "regions",
            "regions": [{"begin": 0.5, "end": 1.0},
                        {"begin": 0.25, "end": 0.75}]}})");
    EXPECT_NE(reversed.find("protection.regions[1].begin: overlaps "
                            "regions[0]"),
              std::string::npos)
        << reversed;
    // Regions that only touch are fine.
    parseSpecOk(
        R"({"name": "t", "protection": {"kind": "regions",
            "regions": [{"begin": 0.25, "end": 0.5,
                         "codeword_frames": 2},
                        {"begin": 0.5, "end": 1.0,
                         "codeword_frames": 8}]}})");
}

TEST(ProtectionPolicyDeathTest, BankRefusesOverlappingRegions)
{
    // A policy built in code passes no spec reader; the bank applies
    // the same rules.
    ProtectionPolicy policy;
    policy.kind = ProtectionScopeKind::AddressRegion;
    ProtectionRegion first;
    first.begin = 0.0;
    first.end = 0.6;
    ProtectionRegion second;
    second.begin = 0.5;
    second.end = 1.0;
    second.domain.codeword_frames = 8;
    policy.regions = {first, second};
    const std::vector<ProtectionPolicyFault> faults =
        protectionPolicyErrors(policy);
    ASSERT_EQ(faults.size(), 1u);
    EXPECT_EQ(faults[0].field, "regions[1].begin");
    EXPECT_EQ(faults[0].reason, "overlaps regions[0]");

    PaperCalibratedErrorModel model;
    RmBankConfig cfg;
    cfg.line_frames = 4096;
    cfg.protection = policy;
    EXPECT_EXIT(RmBank(cfg, &model, racetrackL3()),
                ::testing::ExitedWithCode(1),
                "protection\\.regions\\[1\\]\\.begin: overlaps "
                "regions\\[0\\]");
    // Touching regions are fine.
    policy.regions[1].begin = 0.6;
    EXPECT_TRUE(protectionPolicyErrors(policy).empty());
}

// ---- digest guard --------------------------------------------------

ExperimentSpec
tinyMatrixSpec()
{
    ExperimentSpec spec;
    spec.name = "protection-guard";
    spec.matrix.requests = 2000;
    spec.matrix.warmup = 200;
    spec.matrix.divisor = 32;
    spec.matrix.workloads = {"canneal"};
    spec.matrix.options = {{"RM adaptive", MemTech::Racetrack,
                            Scheme::PeccSAdaptive}};
    normalizeExperimentSpec(&spec);
    return spec;
}

TEST(ProtectionGuard, ExplicitDefaultPolicyReproducesDigest)
{
    ExperimentSpec implicit = tinyMatrixSpec();
    ExperimentResult base = runExperiment(implicit);

    ExperimentSpec explicit_default = tinyMatrixSpec();
    explicit_default.protection.kind =
        ProtectionScopeKind::Uniform;
    explicit_default.protection.uniform = ProtectionDomain{};
    ExperimentResult same = runExperiment(explicit_default);
    EXPECT_EQ(experimentResultDigest(same),
              experimentResultDigest(base));

    // And a real policy must actually reach the results.
    ExperimentSpec pooled = tinyMatrixSpec();
    pooled.protection.uniform.codeword_frames = 8;
    ExperimentResult changed = runExperiment(pooled);
    EXPECT_NE(experimentResultDigest(changed),
              experimentResultDigest(base));
    ASSERT_EQ(changed.matrix.size(), 1u);
    EXPECT_GT(changed.matrix[0].results[0].redundancy_accesses,
              0u);
    EXPECT_EQ(base.matrix[0].results[0].redundancy_accesses, 0u);
}

} // namespace
} // namespace rtm
