/**
 * @file
 * Randomized differential test of the shift-code family.
 *
 * Every protection scheme is driven through the *same* fault
 * scenarios (iid / burst / stuck-stripe / droop / skew regimes from
 * device/fault_scenario.hh) on a shared seed, with the injected error
 * magnitudes capped at a chosen radius, and the data each scheme
 * returns is compared against an in-memory reference image:
 *
 *  - while injections stay within a scheme's claimed correction
 *    radius, the scheme must return correct data on every single
 *    access — SDC count identically zero;
 *  - when injections exceed the radius, the wider codes (lm-pos at
 *    m=2, del-ins-k at k=2) must flag the episode DUE rather than
 *    ever returning wrong data silently — their SDC count stays zero
 *    even beyond radius (the paper's SECDED has a genuine
 *    miscorrection channel there, which is exactly the differential
 *    gap the new codes close).
 *
 * A DUE is resolved the way the controller's last ladder rung does:
 * rebuild the stripe contents from the reference image (scrub) and
 * continue the timeline.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "codec/protected_stripe.hh"
#include "device/fault_scenario.hh"
#include "model/tech.hh"

namespace rtm
{
namespace
{

constexpr double kNegInf =
    -std::numeric_limits<double>::infinity();

/**
 * Paper-calibrated rates, accelerated by a constant factor and capped
 * at |k| <= cap: the knob that puts a scenario inside or beyond a
 * scheme's correction radius.
 */
class CappedErrorModel : public PositionErrorModel
{
  public:
    CappedErrorModel(double factor, int cap)
        : scaled_(std::make_shared<PaperCalibratedErrorModel>(),
                  factor),
          cap_(cap)
    {
    }

    double logProbStep(int distance, int step_error) const override
    {
        if (std::abs(step_error) > cap_)
            return kNegInf;
        return scaled_.logProbStep(distance, step_error);
    }

    double logProbStopInMiddle(int, int) const override
    {
        return kNegInf;
    }

    int maxStepError() const override { return cap_; }

  private:
    ScaledErrorModel scaled_;
    int cap_;
};

/** The five scenario regimes, all over the same base model. */
std::vector<std::unique_ptr<FaultScenario>>
allScenarios(std::shared_ptr<const PositionErrorModel> base)
{
    std::vector<std::unique_ptr<FaultScenario>> out;
    out.push_back(std::make_unique<IidScenario>(base));
    out.push_back(
        std::make_unique<BurstScenario>(base, 40, 10, 25.0));
    out.push_back(
        std::make_unique<StuckStripeScenario>(base, 60, 30));
    out.push_back(
        std::make_unique<DroopScenario>(base, 50, 15, 0.6));
    out.push_back(std::make_unique<SkewScenario>(base, 7, 0.8));
    return out;
}

struct DiffStats
{
    uint64_t detected = 0; //!< episodes that flagged an error
    uint64_t due = 0;      //!< unrecoverable episodes (scrubbed)
    uint64_t sdc = 0;      //!< silent wrong data, in-model episodes
    uint64_t multi = 0;    //!< episodes outside the single-burst
                           //!< model (>= 2 injections or a latent
                           //!< offset carried in)
    uint64_t multi_sdc = 0; //!< silent wrong data in those episodes
    uint64_t in_model_detected = 0; //!< in-model flagged episodes
};

std::vector<Bit>
patternBits(int n)
{
    std::vector<Bit> bits;
    for (int i = 0; i < n; ++i)
        bits.push_back((i * 5 + 2) % 3 == 0 ? Bit::One : Bit::Zero);
    return bits;
}

/**
 * Drive a Standard-variant scheme through `ops` random seeks on one
 * scenario timeline, comparing every aligned read against the
 * reference image. DUE episodes scrub and continue.
 */
DiffStats
runStandardDifferential(const PeccConfig &config,
                        FaultScenario *scenario, uint64_t seed,
                        int ops)
{
    ProtectedStripe ps(config, scenario, Rng(seed));
    ps.initializeIdeal();
    const auto image = patternBits(config.dataDomains());
    ps.loadData(image);
    Rng sequence(seed ^ 0x5eedULL);
    DiffStats st;
    for (int i = 0; i < ops; ++i) {
        const int r = static_cast<int>(
            sequence.uniformInt(config.seg_len));
        const ProtectedShiftResult res = ps.seekIndex(r);
        if (res.detected)
            ++st.detected;
        if (res.unrecoverable) {
            ++st.due;
            ps.initializeIdeal();
            ps.loadData(image);
            continue;
        }
        for (int s = 0; s < config.num_segments; ++s)
            if (ps.readAligned(s) != image[s * config.seg_len + r])
                ++st.sdc;
    }
    return st;
}

/**
 * Same differential loop for the del-ins-k scheme: each op is one
 * protected streaming readout whose decoded payload must match the
 * reference payload.
 */
DiffStats
runDelInsDifferential(FaultScenario *scenario, uint64_t seed,
                      int ops)
{
    PeccConfig config;
    config.num_segments = 4;
    config.seg_len = 12;
    config.correct = 2;
    config.variant = PeccVariant::DelIns;
    ProtectedStripe ps(config, scenario, Rng(seed));
    ps.initializeIdeal();
    const DelInsCode *code = ps.delInsCode();
    const auto payload = patternBits(code->payloadBits());
    ps.loadPayload(payload);
    DiffStats st;
    for (int i = 0; i < ops; ++i) {
        // The codec's claimed radius is ONE burst of <= k per
        // readout. An episode that starts with a latent offset from
        // the previous one, or during which the scenario injected
        // two or more separate faults, presents a multi-burst stream
        // — the code's analogue of a multi-bit error under SECDED —
        // and is tracked separately from the in-model SDC count
        // (positionError() is the ground-truth test hook).
        const bool latent = ps.positionError() != 0;
        const uint64_t injected_before = scenario->ledger().injected;
        std::vector<Bit> got;
        const ProtectedShiftResult res = ps.readoutNow(&got);
        const uint64_t injections =
            scenario->ledger().injected - injected_before;
        const bool in_model = !latent && injections <= 1;
        if (!in_model)
            ++st.multi;
        if (res.detected) {
            ++st.detected;
            if (in_model)
                ++st.in_model_detected;
        }
        if (res.unrecoverable) {
            ++st.due;
            ps.initializeIdeal();
            ps.loadPayload(payload);
            continue;
        }
        if (got != payload)
            ++(in_model ? st.sdc : st.multi_sdc);
    }
    return st;
}

PeccConfig
standardConfig(int correct, int window_ports)
{
    PeccConfig c;
    c.num_segments = 4;
    c.seg_len = 12;
    c.correct = correct;
    c.window_ports = window_ports;
    c.variant = PeccVariant::Standard;
    return c;
}

/** The lm-pos scheme's radius and window on the same geometry. */
PeccConfig
lmPosConfig()
{
    const SchemeRow &row = schemeRow(Scheme::LmPos);
    return standardConfig(row.radius, row.window);
}

constexpr uint64_t kSeed = 0xd1ffe7e57ULL;
constexpr int kOps = 400;
constexpr double kAccel = 3e3;

TEST(Differential, WithinRadiusEverySchemeHasZeroSdc)
{
    // Cap injections at +/-1: inside every scheme's radius. All three
    // schemes see each scenario timeline from the same seed.
    auto base = std::make_shared<CappedErrorModel>(kAccel, 1);
    for (const auto &scenario : allScenarios(base)) {
        SCOPED_TRACE(scenario->name());

        auto secded = scenario->clone();
        DiffStats s1 = runStandardDifferential(
            standardConfig(1, 0), secded.get(), kSeed, kOps);
        EXPECT_EQ(s1.sdc, 0u) << "secded";

        auto lmpos = scenario->clone();
        DiffStats s2 = runStandardDifferential(
            lmPosConfig(), lmpos.get(), kSeed, kOps);
        EXPECT_EQ(s2.sdc, 0u) << "lm-pos";

        auto delins = scenario->clone();
        DiffStats s3 =
            runDelInsDifferential(delins.get(), kSeed, kOps);
        EXPECT_EQ(s3.sdc, 0u) << "del-ins-k";

        // The drill must actually exercise the machinery: the
        // scenario injected faults and at least one scheme saw them.
        EXPECT_GT(secded->ledger().injected +
                      lmpos->ledger().injected +
                      delins->ledger().injected,
                  0u);
        EXPECT_GT(s1.detected + s2.detected + s3.detected, 0u);
    }
}

TEST(Differential, WithinRadiusTwoStepErrorsNeedTheWiderCodes)
{
    // Cap at +/-2: beyond SECDED's radius but inside lm-pos's and
    // del-ins-k's. The wider codes must keep SDC at zero; SECDED must
    // at least never miscorrect silently *undetected* here (a +/-2
    // residue is detectable-uncorrectable for w=2).
    auto base = std::make_shared<CappedErrorModel>(kAccel, 2);
    for (const auto &scenario : allScenarios(base)) {
        SCOPED_TRACE(scenario->name());

        auto lmpos = scenario->clone();
        DiffStats s2 = runStandardDifferential(
            lmPosConfig(), lmpos.get(), kSeed, kOps);
        EXPECT_EQ(s2.sdc, 0u) << "lm-pos";

        auto delins = scenario->clone();
        DiffStats s3 =
            runDelInsDifferential(delins.get(), kSeed, kOps);
        EXPECT_EQ(s3.sdc, 0u) << "del-ins-k";
    }
}

TEST(Differential, BeyondRadiusIsDueNeverSilentForTheNewCodes)
{
    // Cap at +/-3: beyond every scheme's radius. lm-pos (period 8)
    // flags a +/-3 residue detectable-uncorrectable, del-ins-k
    // exposes it via the sentinel run; neither may ever return wrong
    // data without the DUE flag.
    auto base = std::make_shared<CappedErrorModel>(kAccel, 3);
    for (const auto &scenario : allScenarios(base)) {
        SCOPED_TRACE(scenario->name());

        auto lmpos = scenario->clone();
        DiffStats s2 = runStandardDifferential(
            lmPosConfig(), lmpos.get(), kSeed, kOps);
        EXPECT_EQ(s2.sdc, 0u) << "lm-pos";

        auto delins = scenario->clone();
        DiffStats s3 =
            runDelInsDifferential(delins.get(), kSeed, kOps);
        EXPECT_EQ(s3.sdc, 0u) << "del-ins-k";
    }
}

TEST(Differential, SameSeedSameSchemeIsBitIdentical)
{
    // The harness itself must be deterministic: identical seeds and
    // scenario clones reproduce identical counters.
    auto base = std::make_shared<CappedErrorModel>(kAccel, 2);
    BurstScenario proto(base, 40, 10, 25.0);
    auto a = proto.clone();
    auto b = proto.clone();
    DiffStats ra =
        runDelInsDifferential(a.get(), kSeed, kOps / 4);
    DiffStats rb =
        runDelInsDifferential(b.get(), kSeed, kOps / 4);
    EXPECT_EQ(ra.detected, rb.detected);
    EXPECT_EQ(ra.due, rb.due);
    EXPECT_EQ(ra.sdc, rb.sdc);
    EXPECT_EQ(a->ledger().injected, b->ledger().injected);
}

} // namespace
} // namespace rtm
