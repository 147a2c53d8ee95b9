/**
 * @file
 * Result pins of the fault drills.
 *
 * The campaign drill (runFaultDrill) and the stripe drill
 * (runStressDrill) run the controller, codec and device fast paths
 * that perfbench's fault-mc workload times. Those paths are exact
 * rewrites of simpler references, so every result field and every
 * RNG draw must stay as it was. This test freezes each drill's full
 * checkpoint JSON (campaignCellToJson, the StressResult field list)
 * as SHA-256 digests over the configurations that reach distinct
 * code paths: the fault-mc campaign (Standard p-ECC, recovery
 * ladder on), p-ECC-O (shift-and-write plus the left window),
 * two-tier reads on two-frame codewords, the ladder off, del-ins
 * readouts through the ladder, and no re-seek after a recovery
 * (max_replans 0, every unfinished recovery reclassified as a DUE).
 *
 * The stripe drill pins cover a window scheme and del-ins-k in their
 * full field list; GoldenCampaign.FaultDrillDigestsPinned
 * (sim_golden_test) pins the report of every scheme's stripe drill.
 *
 * A changed digest means a changed result bit. After an intentional
 * change, run with RTM_UPDATE_GOLDEN=1 and paste the printed pins.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "sim/campaign.hh"
#include "sim/experiment.hh"
#include "trace/workload.hh"
#include "util/fields.hh"
#include "util/hash.hh"
#include "util/telemetry.hh"

namespace rtm
{
namespace
{

const std::vector<std::string> kWorkloads = {"swaptions", "canneal",
                                             "ferret"};

/** perfbench/specs/fault-mc.json's campaign section at seed 42. */
CampaignConfig
faultMcConfig()
{
    CampaignConfig c;
    c.accesses_per_cell = 20000;
    c.seed = 42;
    c.scale = 2000.0;
    c.recovery = RecoveryConfig{2, true, true, 2, 1024};
    c.bank_due_prob = 0.001;
    return c;
}

/** Shorter cells for the variants of the fault-mc config. */
CampaignConfig
variantConfig()
{
    CampaignConfig c = faultMcConfig();
    c.accesses_per_cell = 8000;
    return c;
}

/** Recovery outcomes summed over a campaign's cells. */
struct RungTally
{
    ControllerStats controller; //!< merged controller ledgers
    uint64_t rung_events = 0;   //!< RecoveryRung events traced

    /**
     * Episodes first counted as recovered and then reclassified as
     * DUEs. Each traces a rung event and a "reclassified-<rung>"
     * event but lands in one ledger bucket, so the excess of traced
     * rung events over the ledger's recovered + unrecoverable
     * buckets counts them (event totals survive ring overwrite).
     */
    uint64_t reclassified() const
    {
        return rung_events - controller.recovered_retry -
               controller.recovered_realign -
               controller.recovered_scrub - controller.unrecoverable;
    }
};

/**
 * One digest over every cell of standardScenarios() x kWorkloads,
 * seeded the way runExperiment seeds campaign cells. With `tally`
 * set, each cell also runs with a telemetry sink (results are
 * bit-identical either way) and its recovery outcomes are summed.
 */
std::string
campaignDigest(const CampaignConfig &config,
               RungTally *tally = nullptr)
{
    const std::vector<ScenarioSpec> scenarios = standardScenarios();
    Sha256 h;
    for (size_t s = 0; s < scenarios.size(); ++s) {
        for (size_t w = 0; w < kWorkloads.size(); ++w) {
            const uint64_t index = s * kWorkloads.size() + w;
            Telemetry t(16);
            CampaignCellResult cell = runFaultDrill(
                scenarios[s], parsecProfile(kWorkloads[w]), config,
                mixSeed(config.seed, index),
                tally ? TelemetryScope(&t) : TelemetryScope());
            h.updateString(campaignCellToJson(cell).dump(0));
            if (tally) {
                tally->controller.merge(cell.controller);
                tally->rung_events +=
                    t.eventCount(EventKind::RecoveryRung);
            }
        }
    }
    return h.hexDigest();
}

std::string
stressDigest(const std::string &scheme, double scale, uint64_t ops)
{
    StressSpec spec;
    spec.scheme = scheme;
    spec.scale = scale;
    spec.ops = ops;
    spec.lseg = 8;
    spec.seed = 42;
    const std::string text = toJson(runStressDrill(spec)).dump(0);
    return sha256Hex(text.data(), text.size());
}

void
expectPin(const char *name, const std::string &got, const char *pin)
{
    if (std::getenv("RTM_UPDATE_GOLDEN"))
        std::printf("{\"%s\",\n \"%s\"},\n", name, got.c_str());
    EXPECT_EQ(got, pin) << name;
}

TEST(DrillPins, FaultMcCampaign)
{
    expectPin("fault-mc", campaignDigest(faultMcConfig()),
              "8fdb5d00290e483714a3be8dd9d7d52c"
              "602fde014596185f621c6a48c699b76e");
}

TEST(DrillPins, OverheadRegionCampaign)
{
    CampaignConfig c = variantConfig();
    c.pecc = PeccConfig{2, 8, 1, PeccVariant::OverheadRegion};
    expectPin("pecc-o", campaignDigest(c),
              "3f9dd8d838d794fa6c150d6c69c8bfab"
              "1ab947f6dd993b7921661f8488f53231");
}

TEST(DrillPins, TwoTierPooledCampaign)
{
    CampaignConfig c = variantConfig();
    c.pecc.two_tier = true;
    c.pecc.codeword_frames = 2;
    expectPin("two-tier-f2", campaignDigest(c),
              "10f86e9170fbb371e01e6d805950646c"
              "47e4d527506a07041b7066e85c31f4d0");
}

TEST(DrillPins, RecoveryOffCampaign)
{
    CampaignConfig c = variantConfig();
    c.recovery = RecoveryConfig{};
    expectPin("recovery-off", campaignDigest(c),
              "c46991110fba8f89c417b1afd53cc293"
              "f91207550b7e5f67938fd760b1e116ef");
}

TEST(DrillPins, DelInsCampaign)
{
    // Every access is a streaming readout (delInsAccess), recovered
    // through the same ladder as the window schemes.
    CampaignConfig c = variantConfig();
    c.pecc = PeccConfig{2, 8, 1, PeccVariant::DelIns};
    RungTally tally;
    expectPin("del-ins", campaignDigest(c, &tally),
              "3bc2a1037dc49ab023b0a71d17dfbc9e"
              "8ae0c720ca09fddcafc3a8bae45ac850");
    // The pin must cover the ladder and the DUE exit.
    EXPECT_GT(tally.controller.recovered_retry +
                  tally.controller.recovered_realign +
                  tally.controller.recovered_scrub,
              0u);
    EXPECT_GT(tally.controller.unrecoverable, 0u);
}

TEST(DrillPins, NoReplanCampaign)
{
    // No re-seek after a recovery: a recovered episode that left
    // the seek unfinished is reclassified as a DUE.
    CampaignConfig c = variantConfig();
    c.recovery.max_replans = 0;
    RungTally tally;
    expectPin("no-replan", campaignDigest(c, &tally),
              "9fbe8d0e47640a8fb354884262840238"
              "f04ebdc53baa62089a37f7c0226aaf5a");
    EXPECT_GT(tally.reclassified(), 0u);
}

TEST(DrillPins, StressDrills)
{
    expectPin("stress-secded", stressDigest("secded", 500.0, 40000),
              "db110cd94ac681ea48f703830521cc88"
              "f1eee4b11f8bd52e2cea4b44a8077271");
    // perfbench/specs/fault-mc.json's stress section at seed 42.
    expectPin("stress-del-ins-k",
              stressDigest("del-ins-k", 50.0, 12500),
              "808dea3dd51c51f3835e2f61b442d79e"
              "13c053f8b2ba7362085ebeec947c0619");
}

} // anonymous namespace
} // namespace rtm
