/**
 * @file
 * Protection-domain bench: reliability vs bandwidth across codeword
 * geometries on the racetrack Fig. 16 configuration (p-ECC-S
 * adaptive LLC).
 *
 * Policies compared per workload:
 *   per-frame (F=1)      the paper's baseline: every frame carries
 *                        its own check region (default policy)
 *   pooled F=2/4/8       F frames share one stronger check region;
 *                        every read also reads the shared region
 *   pooled F=8 two-tier  reads probe the EDC tier first and fetch
 *                        the shared region only on full decodes
 *   differentiated       hot quarter per-frame, cold three quarters
 *                        pooled F=8 two-tier (protection domains)
 *
 * Emits BENCH_protection.json.
 *
 * Flags:
 *   --quick  smaller sizing for CI smoke runs
 *   --check  exit 1 unless pooled F=8 improves SDC MTTF over the
 *            per-frame baseline by >= the floor on every workload
 *            while keeping effective bandwidth within the loss
 *            bound; exit 2 if a run under an explicit default
 *            protection policy diverges from the implicit default
 *            (the protection-domain refactor broke the baseline)
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common.hh"
#include "mem/protection.hh"
#include "sim/system.hh"
#include "util/serde.hh"

namespace rtm
{
namespace
{

/** Workloads swept (one streaming, one pointer-chasing). */
const char *const kWorkloads[] = {"streamcluster", "canneal"};

/**
 * --check floor: pooled F=8 codewords add three correction-strength
 * levels (m_eff = m + 3), which roughly squares-and-more the
 * per-window failure odds; the measured SDC MTTF gain is many orders
 * of magnitude. The floor only asserts a robust margin.
 */
constexpr double kMinMttfGainX = 10.0;

/**
 * --check bound: pooled codewords pay for reliability with
 * redundancy traffic. Two-tier reads keep the effective-bandwidth
 * loss versus the per-frame baseline within this bound.
 */
constexpr double kMaxTwoTierBwLossPct = 35.0;

struct Sizing
{
    uint64_t requests;
    uint64_t warmup;
    uint64_t divisor;
};

struct PolicyRun
{
    std::string label;
    int codeword_frames = 1;
    bool two_tier = false;
    bool differentiated = false;
    SimResult result;
    double wall_seconds = 0.0;
};

SimConfig
baseConfig(const Sizing &sz)
{
    SimConfig cfg;
    cfg.hierarchy.llc_tech = MemTech::Racetrack;
    cfg.hierarchy.scheme = Scheme::PeccSAdaptive;
    cfg.hierarchy.capacity_divisor = sz.divisor;
    cfg.mem_requests = sz.requests;
    cfg.warmup_requests = sz.warmup;
    return cfg;
}

PolicyRun
runPolicy(const char *label, const WorkloadProfile &profile,
          const Sizing &sz, const ProtectionPolicy &policy,
          const PositionErrorModel *model)
{
    SimConfig cfg = baseConfig(sz);
    cfg.hierarchy.protection = policy;
    PolicyRun run;
    run.label = label;
    const double t0 = monotonicSeconds();
    run.result = simulate(profile, cfg, model);
    run.wall_seconds = monotonicSeconds() - t0;
    return run;
}

ProtectionPolicy
uniformPolicy(int frames, bool two_tier)
{
    ProtectionPolicy policy;
    policy.kind = ProtectionScopeKind::Uniform;
    policy.uniform.codeword_frames = frames;
    policy.uniform.two_tier = two_tier;
    return policy;
}

/** Demand bytes served per wall-clock second of simulated time. */
double
effectiveBandwidth(const SimResult &r)
{
    if (r.seconds <= 0.0)
        return 0.0;
    return 64.0 * static_cast<double>(r.llc_accesses) / r.seconds;
}

void
printRun(const PolicyRun &run, const SimResult &base)
{
    char sdc[64];
    formatDuration(run.result.sdc_mttf, sdc, sizeof(sdc));
    const double bw = effectiveBandwidth(run.result);
    const double base_bw = effectiveBandwidth(base);
    std::printf("  %-22s %8.3f sh/acc  %9.2f GB/s (%+5.1f%%)  "
                "%8llu red  SDC %s\n",
                run.label.c_str(), run.result.shiftsPerAccess(),
                bw / 1e9,
                base_bw > 0.0 ? 100.0 * (bw / base_bw - 1.0) : 0.0,
                static_cast<unsigned long long>(
                    run.result.redundancy_accesses),
                sdc);
}

struct WorkloadReport
{
    std::string name;
    std::vector<PolicyRun> runs; //!< runs[0] is the F=1 baseline
};

/** MTTF as JSON: +inf (no failure expected) is written as null. */
JsonValue
mttfJson(double seconds)
{
    return std::isfinite(seconds) ? JsonValue(seconds) : JsonValue();
}

/** Write BENCH_protection.json; false (with a diagnostic) on error. */
bool
writeJson(const std::vector<WorkloadReport> &reports,
          const Sizing &sz)
{
    JsonValue workloads = JsonValue::array();
    for (const WorkloadReport &rep : reports) {
        const double base_bw =
            effectiveBandwidth(rep.runs[0].result);
        JsonValue policies = JsonValue::array();
        for (const PolicyRun &r : rep.runs) {
            const double bw = effectiveBandwidth(r.result);
            JsonValue v = JsonValue::object();
            v.set("policy", r.label);
            v.set("codeword_frames", r.codeword_frames);
            v.set("two_tier", r.two_tier);
            v.set("differentiated", r.differentiated);
            v.set("sdc_mttf_seconds", mttfJson(r.result.sdc_mttf));
            v.set("due_mttf_seconds", mttfJson(r.result.due_mttf));
            v.set("shifts_per_access", r.result.shiftsPerAccess());
            v.set("redundancy_accesses", r.result.redundancy_accesses);
            v.set("redundancy_steps", r.result.redundancy_steps);
            v.set("effective_bandwidth_gbs", bw / 1e9);
            v.set("bandwidth_vs_baseline_pct",
                  base_bw > 0.0 ? 100.0 * (bw / base_bw - 1.0) : 0.0);
            v.set("cycles", r.result.cycles);
            v.set("wall_seconds", r.wall_seconds);
            policies.push(std::move(v));
        }
        JsonValue w = JsonValue::object();
        w.set("name", rep.name);
        w.set("policies", std::move(policies));
        workloads.push(std::move(w));
    }
    JsonValue doc = JsonValue::object();
    doc.set("requests", sz.requests);
    doc.set("divisor", sz.divisor);
    doc.set("workloads", std::move(workloads));
    std::string error;
    if (!saveJsonFile("BENCH_protection.json", doc, 2, &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return false;
    }
    std::printf("wrote BENCH_protection.json\n");
    return true;
}

} // namespace
} // namespace rtm

int
main(int argc, char **argv)
{
    using namespace rtm;
    bool quick = false, check = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else if (std::strcmp(argv[i], "--check") == 0)
            check = true;
    }
    banner("sim_protection",
           "protection domains: codeword size vs bandwidth");
    reportParallelism();

    Sizing sz;
    sz.requests = quick ? 12000 : kBenchRequests;
    sz.warmup = quick ? 2000 : kBenchWarmup;
    sz.divisor = kBenchDivisor;

    PaperCalibratedErrorModel model;
    std::vector<WorkloadReport> reports;
    double worst_gain_x = std::numeric_limits<double>::infinity();
    double worst_two_tier_bw_loss_pct = 0.0;

    for (const char *name : kWorkloads) {
        WorkloadProfile profile =
            scaledProfile(parsecProfile(name), sz.divisor);
        WorkloadReport rep;
        rep.name = name;

        rep.runs.push_back(runPolicy("per-frame (F=1)", profile,
                                     sz, ProtectionPolicy{},
                                     &model));

        // Tripwire: an explicit uniform policy with the default
        // domain must be indistinguishable from no policy at all.
        {
            PolicyRun probe =
                runPolicy("per-frame (F=1)", profile, sz,
                          uniformPolicy(1, false), &model);
            const SimResult &a = rep.runs[0].result;
            const SimResult &b = probe.result;
            if (a.cycles != b.cycles ||
                a.shift_steps != b.shift_steps ||
                a.sdc_mttf != b.sdc_mttf ||
                a.due_mttf != b.due_mttf ||
                b.redundancy_accesses != 0) {
                std::fprintf(stderr,
                             "FATAL: explicit default protection "
                             "policy diverged from the implicit "
                             "default (%s)\n",
                             name);
                return 2;
            }
        }

        for (int frames : {2, 4, 8}) {
            char label[32];
            std::snprintf(label, sizeof(label), "pooled F=%d",
                          frames);
            PolicyRun run =
                runPolicy(label, profile, sz,
                          uniformPolicy(frames, false), &model);
            run.codeword_frames = frames;
            rep.runs.push_back(std::move(run));
        }
        {
            PolicyRun run =
                runPolicy("pooled F=8 two-tier", profile, sz,
                          uniformPolicy(8, true), &model);
            run.codeword_frames = 8;
            run.two_tier = true;
            rep.runs.push_back(std::move(run));
        }
        {
            PolicyRun run = runPolicy("differentiated", profile,
                                      sz, differentiatedPolicy(8),
                                      &model);
            run.codeword_frames = 8;
            run.two_tier = true;
            run.differentiated = true;
            rep.runs.push_back(std::move(run));
        }

        std::printf("%s:\n", name);
        for (const PolicyRun &run : rep.runs)
            printRun(run, rep.runs[0].result);

        const SimResult &base = rep.runs[0].result;
        const SimResult &f8 = rep.runs[3].result;       // pooled F=8
        const SimResult &two_tier = rep.runs[4].result; // + two-tier
        if (base.sdc_mttf > 0.0)
            worst_gain_x = std::min(worst_gain_x,
                                    f8.sdc_mttf / base.sdc_mttf);
        const double base_bw = effectiveBandwidth(base);
        if (base_bw > 0.0) {
            const double loss =
                100.0 *
                (1.0 - effectiveBandwidth(two_tier) / base_bw);
            worst_two_tier_bw_loss_pct =
                std::max(worst_two_tier_bw_loss_pct, loss);
        }
        reports.push_back(std::move(rep));
    }

    if (!writeJson(reports, sz))
        return 1;
    std::printf("worst SDC MTTF gain, pooled F=8 vs per-frame: "
                "%.3gx\n",
                worst_gain_x);
    std::printf("worst bandwidth loss, F=8 two-tier vs per-frame: "
                "%.1f%%\n",
                worst_two_tier_bw_loss_pct);

    if (check) {
        if (worst_gain_x < kMinMttfGainX) {
            std::fprintf(stderr,
                         "REGRESSION: pooled F=8 improves SDC MTTF "
                         "by only %.3gx (< %.1fx floor) on some "
                         "workload\n",
                         worst_gain_x, kMinMttfGainX);
            return 1;
        }
        if (worst_two_tier_bw_loss_pct > kMaxTwoTierBwLossPct) {
            std::fprintf(stderr,
                         "REGRESSION: two-tier F=8 loses %.1f%% "
                         "effective bandwidth (> %.1f%% bound) on "
                         "some workload\n",
                         worst_two_tier_bw_loss_pct,
                         kMaxTwoTierBwLossPct);
            return 1;
        }
        std::printf("check passed: SDC MTTF gain >= %.1fx, "
                    "two-tier bandwidth loss <= %.1f%%\n",
                    kMinMttfGainX, kMaxTwoTierBwLossPct);
    }
    return 0;
}
