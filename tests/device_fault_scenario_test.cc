/**
 * @file
 * Unit tests for fault scenarios (non-i.i.d. regimes).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "device/fault_scenario.hh"
#include "util/hash.hh"

namespace rtm
{
namespace
{

std::shared_ptr<const PositionErrorModel>
acceleratedModel(double scale = 2000.0)
{
    auto base = std::make_shared<PaperCalibratedErrorModel>();
    return std::make_shared<ScaledErrorModel>(base, scale);
}

/** The default spec of `kind`. */
ScenarioSpec
specOf(ScenarioKind kind)
{
    ScenarioSpec spec;
    spec.kind = kind;
    spec.name = enumToken(kind);
    return spec;
}

TEST(FaultScenario, DeterministicUnderSameSeed)
{
    const ScenarioSpec spec = specOf(ScenarioKind::Burst);
    auto a = makeScenario(spec, acceleratedModel());
    auto b = makeScenario(spec, acceleratedModel());
    Rng rng_a(42), rng_b(42);
    for (int i = 0; i < 500; ++i) {
        ShiftOutcome oa = a->sample(rng_a, 3, true);
        ShiftOutcome ob = b->sample(rng_b, 3, true);
        EXPECT_EQ(oa.step_error, ob.step_error) << "sample " << i;
        EXPECT_EQ(oa.stop_in_middle, ob.stop_in_middle);
    }
    EXPECT_EQ(a->ledger().injected, b->ledger().injected);
}

TEST(FaultScenario, BurstInjectsMoreThanIid)
{
    auto model = acceleratedModel();
    FaultScenario iid(specOf(ScenarioKind::Iid), model);
    FaultScenario burst(specOf(ScenarioKind::Burst), model);
    Rng rng_a(7), rng_b(7);
    for (int i = 0; i < 4000; ++i) {
        iid.sample(rng_a, 2, true);
        burst.sample(rng_b, 2, true);
    }
    EXPECT_GT(burst.ledger().injected, iid.ledger().injected);
    EXPECT_EQ(burst.ledger().samples, 4000u);
}

TEST(FaultScenario, StuckWindowUndershootsByExactlyOne)
{
    auto zero = std::make_shared<ScriptedErrorModel>();
    ScenarioSpec spec = specOf(ScenarioKind::StuckStripe);
    spec.stuck_after = 2;
    spec.stuck_len = 3;
    FaultScenario stuck(spec, zero);
    Rng rng(1);
    for (int i = 0; i < 8; ++i) {
        bool in_window = i >= 2 && i < 5;
        ShiftOutcome out = stuck.sample(rng, 1, true);
        EXPECT_EQ(out.step_error, in_window ? -1 : 0) << "sample " << i;
        EXPECT_FALSE(out.stop_in_middle);
    }
    EXPECT_EQ(stuck.ledger().samples, 8u);
    EXPECT_EQ(stuck.ledger().injected, 3u);
    EXPECT_EQ(stuck.ledger().step_errors, 3u);
    EXPECT_EQ(stuck.ledger().stop_in_middle, 0u);
}

TEST(FaultScenario, DroopStrandsWallsWithoutSts)
{
    auto zero = std::make_shared<ScriptedErrorModel>();
    ScenarioSpec spec = specOf(ScenarioKind::Droop);
    spec.droop_period = 4;
    spec.droop_len = 4;
    spec.droop_undershoot_prob = 1.0; // always droop
    FaultScenario droop(spec, zero);
    Rng rng(3);
    ShiftOutcome raw = droop.sample(rng, 2, false);
    EXPECT_TRUE(raw.stop_in_middle);
    EXPECT_EQ(raw.step_error, -1);
    ShiftOutcome sts = droop.sample(rng, 2, true);
    EXPECT_FALSE(sts.stop_in_middle);
    EXPECT_EQ(sts.step_error, -1);
    EXPECT_EQ(droop.ledger().stop_in_middle, 1u);
    EXPECT_EQ(droop.ledger().step_errors, 1u);
}

TEST(FaultScenario, ProbabilityQueriesDelegateToBase)
{
    auto model = acceleratedModel();
    FaultScenario burst(specOf(ScenarioKind::Burst), model);
    for (int d = 1; d <= 4; ++d) {
        for (int k = -2; k <= 2; ++k) {
            if (k == 0)
                continue;
            EXPECT_DOUBLE_EQ(burst.logProbStep(d, k),
                             model->logProbStep(d, k));
        }
        EXPECT_DOUBLE_EQ(burst.logProbStopInMiddle(d, 0),
                         model->logProbStopInMiddle(d, 0));
    }
    EXPECT_EQ(burst.maxStepError(), model->maxStepError());
}

TEST(FaultScenario, SkewFactorIsDeterministicPerStripe)
{
    EXPECT_DOUBLE_EQ(skewFactorFor(7, 0.6), skewFactorFor(7, 0.6));
    EXPECT_NE(skewFactorFor(7, 0.6), skewFactorFor(8, 0.6));
    EXPECT_GT(skewFactorFor(7, 0.6), 0.0);

    // A skewed stripe samples exactly the base at that factor.
    auto model = acceleratedModel();
    ScenarioSpec spec = specOf(ScenarioKind::Skew);
    spec.stripe_id = 7;
    spec.skew_sigma = 0.6;
    FaultScenario skew(spec, model);
    ScaledErrorModel reference(model, skewFactorFor(7, 0.6));
    Rng rng_a(11), rng_b(11);
    for (int i = 0; i < 2000; ++i) {
        const int d = 1 + i % 7;
        ShiftOutcome a = skew.sample(rng_a, d, true);
        ShiftOutcome b = reference.sample(rng_b, d, true);
        ASSERT_EQ(a.step_error, b.step_error) << "sample " << i;
        ASSERT_EQ(a.stop_in_middle, b.stop_in_middle);
    }
    EXPECT_GT(skew.ledger().injected, 0u);
}

TEST(FaultScenario, CatalogueCoversEveryRegime)
{
    std::vector<ScenarioSpec> specs = standardScenarios();
    ASSERT_EQ(specs.size(), enumTokens(ScenarioKind{}).size());
    auto model = acceleratedModel();
    for (size_t i = 0; i < specs.size(); ++i) {
        const ScenarioSpec &spec = specs[i];
        EXPECT_EQ(spec.kind, enumTokens(ScenarioKind{})[i].value);
        EXPECT_EQ(spec.name, enumToken(spec.kind));
        std::unique_ptr<FaultScenario> s =
            makeScenario(spec, model);
        Rng rng(9);
        s->sample(rng, 1, true);
        EXPECT_EQ(s->ledger().samples, 1u);
    }
}

/** A ScriptedErrorModel base whose script mixes every outcome shape. */
std::shared_ptr<const PositionErrorModel>
scriptedModel()
{
    std::vector<ShiftOutcome> script;
    Rng rng(0x5c1e7);
    for (int i = 0; i < 1500; ++i) {
        ShiftOutcome out;
        if (rng.bernoulli(0.3)) {
            out.step_error = static_cast<int>(rng.uniformInt(5)) - 2;
            out.stop_in_middle = rng.bernoulli(0.25);
        }
        script.push_back(out);
    }
    return std::make_shared<ScriptedErrorModel>(script);
}

/**
 * SHA-256 of a scenario's outcome stream over a fixed timeline
 * (distances 1-19 with STS on, then off, 60 times over), its final
 * ledger and the next word of its rng, which pins how many draws
 * the scenario consumed.
 */
std::string
streamDigest(const ScenarioSpec &spec,
             std::shared_ptr<const PositionErrorModel> base)
{
    auto scenario = makeScenario(spec, std::move(base));
    Rng rng(0xd1ce);
    Sha256 h;
    for (int rep = 0; rep < 60; ++rep) {
        for (bool sts : {true, false}) {
            for (int d = 1; d <= 19; ++d) {
                ShiftOutcome out = scenario->sample(rng, d, sts);
                h.updateValue(out.step_error);
                h.updateValue(static_cast<uint8_t>(out.stop_in_middle));
            }
        }
    }
    const InjectionLedger &l = scenario->ledger();
    h.updateValue(l.samples);
    h.updateValue(l.injected);
    h.updateValue(l.step_errors);
    h.updateValue(l.stop_in_middle);
    h.updateValue(rng.next());
    return h.hexDigest();
}

/** The pinned regimes: the standard catalogue, the codec
 *  differential drill's parameterisations and window edge cases. */
std::vector<ScenarioSpec>
pinnedSpecs()
{
    std::vector<ScenarioSpec> specs = standardScenarios();
    auto add = [&specs](ScenarioKind kind, const char *name) {
        ScenarioSpec &s = specs.emplace_back(specOf(kind));
        s.name = name;
        return &s;
    };
    ScenarioSpec *s = add(ScenarioKind::Burst, "diff-burst");
    s->burst_period = 40;
    s->burst_len = 10;
    s->burst_multiplier = 25.0;
    s = add(ScenarioKind::StuckStripe, "diff-stuck");
    s->stuck_after = 60;
    s->stuck_len = 30;
    s = add(ScenarioKind::Droop, "diff-droop");
    s->droop_period = 50;
    s->droop_len = 15;
    s->droop_undershoot_prob = 0.6;
    s = add(ScenarioKind::Skew, "diff-skew");
    s->skew_sigma = 0.8;
    add(ScenarioKind::StuckStripe, "stuck-at-0")->stuck_after = 0;
    s = add(ScenarioKind::Burst, "burst-always");
    s->burst_period = 16;
    s->burst_len = 16;
    add(ScenarioKind::Droop, "droop-p0")->droop_undershoot_prob = 0.0;
    add(ScenarioKind::Droop, "droop-p1")->droop_undershoot_prob = 1.0;
    return specs;
}

TEST(FaultScenario, OutcomeStreamsArePinned)
{
    // Every regime's outcome stream, ledger and rng consumption, on a
    // ScaledErrorModel base (the direct-call path every drill takes)
    // and a ScriptedErrorModel base (the virtual path). A change to
    // draw order, window counting or ledger accounting moves a digest.
    struct Pin
    {
        const char *scaled;
        const char *scripted;
    };
    const Pin pins[] = {
        {"75f96b7f43e4c31cd2a5cfc53ea899f48a7bddee515eeeebea833e6d6e51a1b7",
         "3f5ef051100284af58e8d6f9220d7dd399be67cf596cab99a12e3b4353ae05b3"},
        {"5731745cddb76cf3149e211547bb58a0af341be1d22befcc834a2f9321ac9494",
         "7223b1d8434a2f653f3a2cedc8298733890542205ae0a8a68d54ea14b39a35e2"},
        {"9531c68c76704b153d067be9c464b3b93a9b84e70e1665e40c3152f8ebc9e4fc",
         "65a8313fd8daa8a92a304d0ead732195dbaf8d7c637886bed15ccf387d0e0257"},
        {"a3737f9780d70200911444101ba49a861959d57a7f14bcee8a4e363cb4da4b65",
         "3e4bf016a18b2eb46e03ddd2bfbedea31983066c0d6dabdbf97a6f7fc6fa397c"},
        {"4fa454ff07720bbd3856fef2d5a7f1b9bcfc87fe8ebd454295c1cfb26b0bdc6d",
         "68351d7f2b8b1e4d0e55f02361160e92b416055048b3fbab442a6c9ed94f999d"},
        {"98fe0439bd6d73a768c6100e52287dfcac70f18cec1e042470e2468546ad9fec",
         "9a696c8bd93d86717110674de83021704fe34127f7fc0ac546d57b30c3ef524a"},
        {"74382ca0cf93de4ac8f54c766f35222cb44f2c3d124d21e3d3e93780f1367126",
         "63f27084765575582bc4b5d5b5581784ebccc22c68a2073f1fd9c272e35d324a"},
        {"6580288a96d118ccde09e0b25a595557706685c04c67fb1bf72344a8d154b4e4",
         "685fac3f7844dfe827a334fc59b9581b95af80ddf76bc75cd05b0c714ccca88e"},
        {"a80a5112bba3d485f824bdf09c87a94d6c676a4d927336e495abdfbeaa8505bd",
         "68351d7f2b8b1e4d0e55f02361160e92b416055048b3fbab442a6c9ed94f999d"},
        {"ee92f0547c58b1fa6176fad5d866d6d690f399b962cc9a77c307bc14fabf359d",
         "49869dc7f9770c90fda7e01c4da6c20c78213cda4869fa5bad28c6882a11f7eb"},
        {"23dc0af69e4834d439fd9a0a64a24eb2916633b6fce9eaa911341650666e56ca",
         "68351d7f2b8b1e4d0e55f02361160e92b416055048b3fbab442a6c9ed94f999d"},
        {"75f96b7f43e4c31cd2a5cfc53ea899f48a7bddee515eeeebea833e6d6e51a1b7",
         "3f5ef051100284af58e8d6f9220d7dd399be67cf596cab99a12e3b4353ae05b3"},
        {"dc657c0872ef2ccd586779fa3cccf6312087b5d15d908b9db91477108ad5ecf6",
         "3deb7620834f1cbcdc3956c06789018fe5bc9e6b9e66d86caa916cae2652379d"},
    };
    std::vector<ScenarioSpec> specs = pinnedSpecs();
    ASSERT_EQ(specs.size(), std::size(pins));
    for (size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(specs[i].name);
        EXPECT_EQ(streamDigest(specs[i], acceleratedModel()),
                  pins[i].scaled);
        EXPECT_EQ(streamDigest(specs[i], scriptedModel()),
                  pins[i].scripted);
    }
}

} // namespace
} // namespace rtm
