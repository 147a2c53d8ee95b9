/**
 * @file
 * rtmsim - the library's command-line front-end.
 *
 * Subcommands:
 *
 *   rtmsim run [options]       simulate a workload, trace, or spec
 *   rtmsim spec [options]      validate / expand an experiment spec
 *   rtmsim rates               print the position-error rate tables
 *   rtmsim plan <distance>     show the planner's adapter table
 *   rtmsim stripe              describe a protected stripe layout
 *   rtmsim help                this text
 *
 * `run` options:
 *   --spec FILE.json  run a declarative ExperimentSpec (see
 *                     docs/ARCHITECTURE.md); the flags below become
 *                     overrides on top of the spec, and a flag for a
 *                     section the spec does not enable exits 2.
 *                     A campaign section prints its per-cell
 *                     containment table (exit 1 unless every cell
 *                     contained its faults), a stress section its
 *                     measured-vs-analytic reconciliation table
 *   --workload NAME   PARSEC-like profile (default streamcluster)
 *   --trace PATH      replay a text trace instead of a profile
 *   --tech T          sram | sttram | rm | rm-ideal  (default rm)
 *   --scheme S        baseline | sed | secded | pecc-o | worst |
 *                     adaptive | lm-pos | del-ins-k
 *                                                  (default adaptive)
 *   --requests N      memory requests              (default 60000)
 *   --divisor D       capacity divisor             (default 16)
 *   --seed N          RNG seed                     (default 42;
 *                     on a spec run it reseeds every enabled section)
 *   --placement P     static | hot-center | adaptive
 *                     data placement policy        (default static)
 *   --placement-epoch N  accesses per placement epoch (default 64)
 *   --swap-budget N   adaptive swaps per epoch     (default 4)
 *   --head-policy H   stay | return-home | center | predictive
 *                     port scheduling after access (default stay)
 *   --protection P    uniform | two-tier | differentiated
 *                     protection-domain policy (default uniform;
 *                     two-tier = uniform + EDC-first reads,
 *                     differentiated = hot quarter per-frame, cold
 *                     3/4 pooled two-tier codewords)
 *   --codeword-frames N  frames per codeword, 1|2|4|8 (default 1;
 *                     under `differentiated` this sizes the cold
 *                     region's codewords)
 *   --out PATH        unified result JSON (spec runs)
 *   --metrics PATH    write the telemetry registry as JSON
 *   --trace-out PATH  write traced events in Chrome trace_event
 *                     format (open in chrome://tracing / Perfetto);
 *                     named --trace-out because --trace already
 *                     selects the input trace file
 *   --stream-out P    checkpoint journal for spec runs (default
 *                     `<out>.journal.jsonl`, "none" disables): each
 *                     completed cell is streamed as a CRC-framed
 *                     JSONL record, so SIGINT/SIGTERM (or a crash)
 *                     loses at most the cells in flight
 *   --resume P        replay completed cells from a journal written
 *                     by --stream-out and run only the rest; the
 *                     merged result is bit-identical to an
 *                     uninterrupted run
 *
 * `spec` options:
 *   --file FILE.json  spec to validate (default: built-in defaults)
 *   --out PATH        write the normalized spec back out
 *
 * `plan` options:
 *   --lseg N          segment length               (default 8)
 *   --intensity OPS   sustained ops/s for Dsafe    (default 83e6)
 *
 * `stripe` options:
 *   --segments N --lseg N --strength M --variant
 *   std|overhead|del-ins
 */

#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <initializer_list>
#include <string>
#include <vector>

#include "codec/layout.hh"
#include "control/planner.hh"
#include "device/error_model.hh"
#include "mem/protection.hh"
#include "model/area.hh"
#include "sim/experiment.hh"
#include "sim/runner.hh"
#include "trace/trace_file.hh"
#include "util/serde.hh"
#include "util/table.hh"

using namespace rtm;

namespace
{

/**
 * Parse flag `name` (or `fallback`) as a token of enum E's table;
 * exit 2 listing the accepted tokens otherwise.
 */
template <class E>
E
enumFlagOrExit(const CliFlags &flags, const char *name,
               const char *fallback)
{
    const std::string token = flags.get(name, fallback);
    E value{};
    if (enumFromToken(token, &value))
        return value;
    std::string known;
    for (const EnumToken<E> &row : enumTokens(value))
        known += (known.empty() ? "" : " | ") + std::string(row.token);
    std::fprintf(stderr, "unknown --%s '%s' (%s)\n", name,
                 token.c_str(), known.c_str());
    std::exit(2);
}

/**
 * Build a ProtectionPolicy from --protection / --codeword-frames.
 * Only called when at least one of the two flags is present, so a
 * bare `rtmsim run` keeps the default (empty) policy and its golden
 * digests.
 */
ProtectionPolicy
protectionOrExit(const CliFlags &flags)
{
    const int frames = flags.getInt("codeword-frames", 1);
    const std::string token = flags.get("protection", "uniform");
    ProtectionPolicy policy;
    if (token == "uniform" || token == "two-tier") {
        policy.kind = ProtectionScopeKind::Uniform;
        policy.uniform.codeword_frames = frames;
        policy.uniform.two_tier = token == "two-tier";
    } else if (token == "differentiated") {
        policy = differentiatedPolicy(frames > 1 ? frames : 8);
    } else {
        std::fprintf(stderr,
                     "unknown protection '%s' (uniform | two-tier | "
                     "differentiated)\n",
                     token.c_str());
        std::exit(2);
    }
    return policy;
}

ExperimentSpec
loadSpecOrExit(const std::string &path)
{
    ExperimentSpec spec;
    std::string diag;
    if (!loadExperimentSpec(path, &spec, &diag)) {
        std::fprintf(stderr, "%s\n", diag.c_str());
        std::exit(2);
    }
    return spec;
}

/**
 * Exit 2 if one of `names` is set while the spec leaves `section`
 * disabled: the override would otherwise be dropped unread.
 */
void
rejectForDisabledSection(const CliFlags &flags, bool enabled,
                         const char *section,
                         std::initializer_list<const char *> names)
{
    if (enabled)
        return;
    for (const char *name : names) {
        if (flags.has(name)) {
            std::fprintf(stderr,
                         "--%s only affects the %s section, which "
                         "%s does not enable\n",
                         name, section,
                         flags.get("spec", "").c_str());
            std::exit(2);
        }
    }
}

/**
 * Apply `run` flag overrides on top of a loaded spec, then emit and
 * re-parse the result so the overrides pass the same checks as the
 * file (exit 2 with the dotted-path diagnostic otherwise).
 */
void
applyRunOverrides(const CliFlags &flags, ExperimentSpec *spec)
{
    if (flags.has("trace")) {
        std::fprintf(stderr, "--trace replays one trace file and "
                     "cannot be combined with --spec (--trace-out "
                     "writes the Chrome trace)\n");
        std::exit(2);
    }
    rejectForDisabledSection(
        flags, spec->matrix.enabled, "matrix",
        {"requests", "divisor", "workload", "tech", "scheme",
         "placement", "placement-epoch", "swap-budget", "head-policy",
         "protection", "codeword-frames"});
    rejectForDisabledSection(flags, spec->montecarlo.enabled,
                             "montecarlo", {"mc-tier", "mc-trials"});

    if (flags.has("requests")) {
        spec->matrix.requests = flags.getU64("requests", 60000);
        // Same convention as an unstated spec warmup: track the
        // request count so overridden runs stay proportioned.
        spec->matrix.warmup = spec->matrix.requests / 10;
    }
    if (flags.has("divisor"))
        spec->matrix.divisor = flags.getU64("divisor", 16);
    if (flags.has("seed")) {
        // Reseed only enabled sections: a disabled section's seed
        // still enters the journal's spec hash.
        const uint64_t seed = flags.getU64("seed", 42);
        if (spec->matrix.enabled)
            spec->matrix.seed = seed;
        if (spec->campaign.enabled)
            spec->campaign.config.seed = seed;
        if (spec->stress.enabled)
            spec->stress.seed = seed;
        if (spec->montecarlo.enabled)
            spec->montecarlo.seed = seed;
    }
    if (flags.has("workload"))
        spec->matrix.workloads = {flags.get("workload", "")};
    if (flags.has("tech") || flags.has("scheme")) {
        LlcOption opt;
        opt.tech = enumFlagOrExit<MemTech>(flags, "tech", "rm");
        opt.scheme =
            enumFlagOrExit<Scheme>(flags, "scheme", "adaptive");
        opt.label = std::string(memTechName(opt.tech)) + " " +
                    schemeName(opt.scheme);
        spec->matrix.options = {opt};
    }
    // Placement/head-policy overrides apply across every matrix
    // option, so a sweep spec can be re-run under one policy without
    // editing the file.
    if (flags.has("placement") || flags.has("head-policy") ||
        flags.has("placement-epoch") || flags.has("swap-budget")) {
        for (LlcOption &opt : spec->matrix.options) {
            if (flags.has("placement"))
                opt.placement = enumFlagOrExit<PlacementKind>(
                    flags, "placement", "static");
            if (flags.has("head-policy"))
                opt.head_policy = enumFlagOrExit<HeadPolicy>(
                    flags, "head-policy", "stay");
            if (flags.has("placement-epoch"))
                opt.placement_epoch = flags.getU64(
                    "placement-epoch", opt.placement_epoch);
            if (flags.has("swap-budget"))
                opt.placement_swap_budget = flags.getInt(
                    "swap-budget", opt.placement_swap_budget);
        }
    }
    if (flags.has("protection") || flags.has("codeword-frames"))
        spec->protection = protectionOrExit(flags);
    if (flags.has("mc-tier"))
        spec->montecarlo.tier = mcTierToken(
            enumFlagOrExit<McTier>(flags, "mc-tier", "exact"));
    if (flags.has("mc-trials"))
        spec->montecarlo.trials =
            flags.getU64("mc-trials", spec->montecarlo.trials);
    if (flags.has("out"))
        spec->output_path = flags.get("out", "");
    if (flags.has("metrics"))
        spec->metrics_path = flags.get("metrics", "");
    if (flags.has("trace-out"))
        spec->trace_path = flags.get("trace-out", "");

    std::string diag;
    if (!experimentSpecFromJson(experimentSpecToJson(*spec), spec,
                                &diag)) {
        std::fprintf(stderr, "%s (after flag overrides): %s\n",
                     flags.get("spec", "").c_str(), diag.c_str());
        std::exit(2);
    }
}

/** Signal-visible cancel source for spec runs (SIGINT/SIGTERM). */
CancelToken g_cancel;

/**
 * Resolve the checkpoint-stream path: an explicit --stream-out wins
 * ("none" disables), resuming defaults to appending the journal
 * being resumed, and otherwise the stream sits next to the result
 * JSON as `<out>.journal.jsonl`.
 */
std::string
resolveStreamPath(const CliFlags &flags,
                  const std::string &resume_path,
                  const std::string &out_path)
{
    if (flags.has("stream-out")) {
        const std::string path = flags.get("stream-out", "");
        return path == "none" ? "" : path;
    }
    if (!resume_path.empty())
        return resume_path;
    return out_path + ".journal.jsonl";
}

/**
 * Uniform epilogue for crash-safe spec runs: outcome summary,
 * resume hint, and the exit status convention (130 interrupted,
 * 1 on contained-but-failed cells).
 */
int
resilienceEpilogue(const ExperimentResult &result,
                   const std::string &stream_path, int exit_code)
{
    if (result.failed_cells || result.timed_out_cells ||
        result.cancelled_cells || result.replayed_cells) {
        std::printf("cells           %llu ok, %llu replayed, "
                    "%llu failed, %llu timed out, %llu cancelled\n",
                    static_cast<unsigned long long>(
                        result.ok_cells),
                    static_cast<unsigned long long>(
                        result.replayed_cells),
                    static_cast<unsigned long long>(
                        result.failed_cells),
                    static_cast<unsigned long long>(
                        result.timed_out_cells),
                    static_cast<unsigned long long>(
                        result.cancelled_cells));
    }
    for (const CellOutcome &o : result.outcomes) {
        if (o.status == CellStatus::Failed)
            std::fprintf(stderr, "cell '%s' failed after %d "
                         "attempt(s): %s\n",
                         o.label.c_str(), o.attempts,
                         o.error.c_str());
    }
    if (result.interrupted) {
        if (!stream_path.empty())
            std::fprintf(stderr,
                         "interrupted — resume with "
                         "--resume %s\n", stream_path.c_str());
        else
            std::fprintf(stderr, "interrupted — no checkpoint "
                         "stream was active\n");
        return 130;
    }
    if (result.failed_cells)
        return 1;
    return exit_code;
}

/** A campaign section's per-cell containment table. */
void
printCampaign(const CampaignSpec &spec, const CampaignResult &r)
{
    const CampaignConfig &c = spec.config;
    std::printf("campaign: %zu scenarios x %zu workloads, %llu "
                "accesses/cell, rates x%.0f, retry budget %d\n\n",
                spec.scenarios.size(), spec.workloads.size(),
                static_cast<unsigned long long>(c.accesses_per_cell),
                c.scale, c.recovery.retry_budget);
    auto count = [](uint64_t n) {
        return TextTable::integer(static_cast<long long>(n));
    };
    TextTable t({"scenario", "workload", "injected", "detected",
                 "corrected", "ladder", "DUE", "SDC", "degr.cap",
                 "contained"});
    for (const CampaignCellResult &cell : r.cells) {
        const CampaignLedger &l = cell.ledger;
        t.addRow({cell.scenario, cell.workload,
                  count(l.injected_faults), count(l.detected),
                  count(l.corrected),
                  count(l.recovered_retry + l.recovered_realign +
                        l.recovered_scrub),
                  count(l.due), count(l.sdc),
                  TextTable::fixed(cell.degraded_capacity_fraction, 3),
                  cell.contained ? "yes" : cell.violation});
    }
    t.print(stdout);
    std::printf("\n%llu/%zu cells contained\n\n",
                static_cast<unsigned long long>(r.contained_cells),
                r.cells.size());
}

/**
 * The stress drill's outcomes against the closed-form
 * ReliabilityModel's expectation at the same scaled rates.
 */
void
printStress(const StressSpec &spec, const StressResult &r)
{
    std::printf("stress: %s, rates x%.0f, %llu ops, Lseg %d\n\n",
                schemeName(r.scheme), spec.scale,
                static_cast<unsigned long long>(spec.ops), spec.lseg);
    TextTable t({"outcome", "measured", "analytic expectation",
                 "ratio"});
    auto row = [&](const char *name, uint64_t got, double want) {
        double ratio = want > 0
                           ? static_cast<double>(got) / want
                           : (got == 0 ? 1.0 : INFINITY);
        t.addRow({name,
                  TextTable::integer(static_cast<long long>(got)),
                  TextTable::fixed(want, 1),
                  TextTable::fixed(ratio, 2)});
    };
    row("corrected", r.corrected, r.exp_corrected);
    row("DUE", r.due, r.exp_due);
    row("silent", r.silent, r.exp_sdc);
    t.print(stdout);
    std::printf("\nclean ops: %llu; mean shift distance %.2f\n",
                static_cast<unsigned long long>(r.clean),
                r.distances.mean());
    std::printf("ratios near 1.00 validate the closed-form "
                "reliability model against the functional stack; "
                "the paper-scale MTTF figures rest on exactly that "
                "model evaluated at the unscaled rates.\n\n");
}

int
runSpec(const ExperimentSpec &spec_in, const CliFlags &flags)
{
    ExperimentSpec spec = spec_in;
    normalizeExperimentSpec(&spec);

    Telemetry telemetry(1 << 15);
    TelemetryScope scope;
    if (!spec.metrics_path.empty() || !spec.trace_path.empty())
        scope = &telemetry;

    std::string out_path = spec.output_path.empty()
                               ? "rtmsim_experiment.json"
                               : spec.output_path;
    RunControl control;
    control.cancel = &g_cancel;
    control.resume_path = flags.get("resume", "");
    control.stream_path =
        resolveStreamPath(flags, control.resume_path, out_path);
    installCancelOnSignals(&g_cancel);

    ExperimentResult result =
        runExperiment(spec, nullptr, scope, control);
    installCancelOnSignals(nullptr);

    std::printf("experiment '%s': %zu cells\n\n",
                spec.name.c_str(), result.cells);
    // Summary tables read every cell slot, so they are only
    // meaningful when every cell completed (or was replayed);
    // an interrupted run still writes its report + journal below.
    if (result.has_matrix && result.complete()) {
        TextTable t({"option", "geomean runtime (s)",
                     "geomean energy (J)"});
        for (size_t o = 0; o < spec.matrix.options.size(); ++o) {
            std::vector<double> secs, energy;
            for (const WorkloadMatrixRow &row : result.matrix) {
                secs.push_back(row.results[o].seconds);
                energy.push_back(row.results[o].totalEnergy());
            }
            t.addRow({spec.matrix.options[o].label,
                      TextTable::num(geomean(secs)),
                      TextTable::num(geomean(energy))});
        }
        t.print(stdout);
        std::printf("\n");
    }
    if (result.has_campaign && result.complete())
        printCampaign(spec.campaign, result.campaign);
    if (result.has_stress && result.complete())
        printStress(spec.stress, result.stress);
    if (result.has_mc) {
        const McRunResult &m = result.mc;
        std::printf("montecarlo (%s tier): distance %d, %llu "
                    "trials, dev %.4g +/- %.4g, P(+1) %.3g\n",
                    m.tier.c_str(), m.distance,
                    static_cast<unsigned long long>(m.trials),
                    m.deviation_mean, m.deviation_stddev,
                    m.step_prob_plus1);
        if (m.has_fit)
            std::printf("montecarlo fit: sigma %.4g, rho %.3f, "
                        "drift %.4g\n",
                        m.fit.sigma_step, m.fit.resync_rho,
                        m.fit.drift);
    }

    if (!writeExperimentJson(result, out_path)) {
        std::fprintf(stderr, "cannot write '%s'\n",
                     out_path.c_str());
        return 1;
    }
    std::printf("report          %s\n", out_path.c_str());
    std::printf("digest          %s\n",
                experimentResultDigest(result).c_str());
    if (!spec.metrics_path.empty()) {
        if (!telemetry.writeMetricsJson(spec.metrics_path)) {
            std::fprintf(stderr, "cannot write metrics to '%s'\n",
                         spec.metrics_path.c_str());
            return 1;
        }
        std::printf("metrics         %s\n",
                    spec.metrics_path.c_str());
    }
    if (!spec.trace_path.empty()) {
        if (!telemetry.writeChromeTrace(spec.trace_path)) {
            std::fprintf(stderr, "cannot write trace to '%s'\n",
                         spec.trace_path.c_str());
            return 1;
        }
        std::printf("trace           %s (chrome://tracing)\n",
                    spec.trace_path.c_str());
    }
    int exit_code = 0;
    if (result.has_campaign && result.complete() &&
        !result.campaign.allContained()) {
        std::fprintf(stderr, "containment FAILED\n");
        exit_code = 1;
    }
    return resilienceEpilogue(result, control.stream_path,
                              exit_code);
}

int
cmdRun(int argc, char **argv)
{
    CliFlags flags = CliFlags::parseOrExit(
        argc, argv, 2,
        {"spec", "workload", "trace", "tech", "scheme", "requests",
         "divisor", "seed", "out", "metrics", "trace-out",
         "mc-tier", "mc-trials", "stream-out", "resume",
         "placement", "placement-epoch", "swap-budget",
         "head-policy", "protection", "codeword-frames"});

    if (flags.has("spec")) {
        ExperimentSpec spec =
            loadSpecOrExit(flags.get("spec", ""));
        applyRunOverrides(flags, &spec);
        return runSpec(spec, flags);
    }

    SimConfig cfg;
    cfg.hierarchy.llc_tech = enumFlagOrExit<MemTech>(flags, "tech", "rm");
    cfg.hierarchy.scheme =
        enumFlagOrExit<Scheme>(flags, "scheme", "adaptive");
    cfg.hierarchy.capacity_divisor = flags.getU64("divisor", 16);
    if (cfg.hierarchy.capacity_divisor == 0) {
        std::fprintf(stderr, "--divisor must be >= 1\n");
        std::exit(2);
    }
    cfg.hierarchy.placement.kind =
        enumFlagOrExit<PlacementKind>(flags, "placement", "static");
    cfg.hierarchy.placement.epoch_accesses =
        flags.getU64("placement-epoch", 64);
    if (cfg.hierarchy.placement.epoch_accesses == 0) {
        std::fprintf(stderr, "--placement-epoch must be >= 1\n");
        std::exit(2);
    }
    cfg.hierarchy.placement.swap_budget = flags.getInt("swap-budget", 4);
    if (cfg.hierarchy.placement.swap_budget < 0) {
        std::fprintf(stderr, "--swap-budget must be >= 0\n");
        std::exit(2);
    }
    cfg.hierarchy.head_policy =
        enumFlagOrExit<HeadPolicy>(flags, "head-policy", "stay");
    if (flags.has("protection") || flags.has("codeword-frames"))
        cfg.hierarchy.protection = protectionOrExit(flags);
    const std::string geometry = hierarchyGeometryError(cfg.hierarchy);
    if (!geometry.empty()) {
        std::fprintf(stderr, "--divisor %llu: %s\n",
                     static_cast<unsigned long long>(
                         cfg.hierarchy.capacity_divisor),
                     geometry.c_str());
        std::exit(2);
    }
    cfg.mem_requests = flags.getU64("requests", 60000);
    cfg.warmup_requests = cfg.mem_requests / 10;
    cfg.seed = flags.getU64("seed", 42);

    const std::string metrics_path = flags.get("metrics", "");
    const std::string trace_out = flags.get("trace-out", "");
    Telemetry telemetry(1 << 15);
    if (!metrics_path.empty() || !trace_out.empty())
        cfg.telemetry = &telemetry;

    PaperCalibratedErrorModel model;
    SimResult r;
    if (flags.has("trace")) {
        const std::string path = flags.get("trace", "");
        TraceParseResult trace = loadTraceFileChecked(
            path, TraceParseMode::Strict, cfg.hierarchy.cores);
        if (!trace.ok()) {
            const TraceDiagnostic &d = trace.diagnostics.front();
            if (d.line > 0)
                std::fprintf(stderr, "%s:%d: %s\n", path.c_str(),
                             d.line, d.message.c_str());
            else
                std::fprintf(stderr, "%s\n", d.message.c_str());
            std::exit(2);
        }
        if (trace.requests.empty()) {
            std::fprintf(stderr, "%s: no requests\n", path.c_str());
            std::exit(2);
        }
        r = simulateTrace(path, trace.requests, cfg, &model);
    } else {
        std::string name = flags.get("workload", "streamcluster");
        WorkloadProfile profile = scaledProfile(
            parsecProfile(name), cfg.hierarchy.capacity_divisor);
        r = simulate(profile, cfg, &model);
    }

    char sdc[64], due[64];
    formatDuration(r.sdc_mttf, sdc, sizeof(sdc));
    formatDuration(r.due_mttf, due, sizeof(due));
    std::printf("workload        %s\n", r.workload.c_str());
    std::printf("llc             %s + %s\n",
                memTechName(r.llc_tech), schemeName(r.scheme));
    std::printf("instructions    %llu\n",
                static_cast<unsigned long long>(r.instructions));
    std::printf("mem ops         %llu\n",
                static_cast<unsigned long long>(r.mem_ops));
    std::printf("cycles          %llu (%.3g s, IPC %.2f)\n",
                static_cast<unsigned long long>(r.cycles),
                r.seconds, r.ipc());
    std::printf("llc accesses    %llu (miss rate %.1f%%)\n",
                static_cast<unsigned long long>(r.llc_accesses),
                r.llc_accesses ? 100.0 * r.llc_misses /
                                     static_cast<double>(
                                         r.llc_accesses)
                               : 0.0);
    std::printf("shift ops       %llu (%llu steps, %llu cycles)\n",
                static_cast<unsigned long long>(r.shift_ops),
                static_cast<unsigned long long>(r.shift_steps),
                static_cast<unsigned long long>(r.shift_cycles));
    std::printf("shifts/access   %.3f\n", r.shiftsPerAccess());
    if (r.migrations)
        std::printf("migrations      %llu (%llu steps)\n",
                    static_cast<unsigned long long>(r.migrations),
                    static_cast<unsigned long long>(
                        r.migration_steps));
    if (r.redundancy_accesses)
        std::printf("redundancy      %llu accesses (%llu steps)\n",
                    static_cast<unsigned long long>(
                        r.redundancy_accesses),
                    static_cast<unsigned long long>(
                        r.redundancy_steps));
    std::printf("energy          %.3g J dynamic, %.3g J shift, "
                "%.3g J leakage, %.3g J DRAM\n",
                r.cache_dynamic_energy, r.llc_shift_energy,
                r.leakage_energy, r.dram_energy);
    std::printf("SDC MTTF        %s\n", sdc);
    std::printf("DUE MTTF        %s\n", due);

    if (!metrics_path.empty()) {
        if (!telemetry.writeMetricsJson(metrics_path)) {
            std::fprintf(stderr, "cannot write metrics to '%s'\n",
                         metrics_path.c_str());
            return 1;
        }
        std::printf("metrics         %s\n", metrics_path.c_str());
    }
    if (!trace_out.empty()) {
        if (!telemetry.writeChromeTrace(trace_out)) {
            std::fprintf(stderr, "cannot write trace to '%s'\n",
                         trace_out.c_str());
            return 1;
        }
        std::printf("trace           %s (chrome://tracing)\n",
                    trace_out.c_str());
    }
    return 0;
}

int
cmdSpec(int argc, char **argv)
{
    CliFlags flags =
        CliFlags::parseOrExit(argc, argv, 2, {"file", "out"});
    ExperimentSpec spec;
    if (flags.has("file"))
        spec = loadSpecOrExit(flags.get("file", ""));
    else
        normalizeExperimentSpec(&spec);

    std::vector<ExperimentCell> cells = expandCells(spec);
    size_t matrix = 0, campaign = 0, stress = 0, mc = 0;
    for (const ExperimentCell &c : cells) {
        switch (c.kind) {
          case ExperimentCell::Kind::Matrix: ++matrix; break;
          case ExperimentCell::Kind::Campaign: ++campaign; break;
          case ExperimentCell::Kind::Stress: ++stress; break;
          case ExperimentCell::Kind::MonteCarlo: ++mc; break;
        }
    }
    std::printf("spec '%s': %zu cells (%zu matrix, %zu campaign, "
                "%zu stress, %zu montecarlo)\n",
                spec.name.c_str(), cells.size(), matrix, campaign,
                stress, mc);
    if (flags.has("out")) {
        const std::string out = flags.get("out", "");
        if (!saveJsonFile(out, experimentSpecToJson(spec))) {
            std::fprintf(stderr, "cannot write '%s'\n",
                         out.c_str());
            return 1;
        }
        std::printf("normalized spec: %s\n", out.c_str());
    } else {
        std::printf("%s\n",
                    experimentSpecToJson(spec).dump().c_str());
    }
    return 0;
}

int
cmdRates()
{
    PaperCalibratedErrorModel model;
    TextTable t({"distance", "P(+-1)", "P(+-2)", "P(+-3)"});
    for (int d = 1; d <= 16; ++d) {
        t.addRow({TextTable::integer(d),
                  TextTable::num(model.stepErrorRate(d, 1)),
                  TextTable::num(model.stepErrorRate(d, 2)),
                  TextTable::num(model.stepErrorRate(d, 3))});
    }
    t.print(stdout);
    std::printf("\n(distances beyond 7 are power-law "
                "extrapolations of the paper's Table 2)\n");
    return 0;
}

int
cmdPlan(int argc, char **argv)
{
    CliFlags flags = CliFlags::parseOrExit(argc, argv, 2,
                                           {"lseg", "intensity"});
    int lseg = flags.getInt("lseg", 8);
    double intensity = flags.getDouble("intensity", 83e6);
    PaperCalibratedErrorModel model;
    StsTiming timing(kDefaultClockHz, 0.4e-9, 1.0e-9, 0.34e-9);
    ShiftPlanner planner(&model, timing, 1, lseg - 1);
    std::printf("safe distance at %.3g ops/s: %d\n\n", intensity,
                planner.safeDistance(intensity));
    for (int d = 1; d <= lseg - 1; ++d) {
        std::printf("distance %d:\n", d);
        TextTable t({"min interval (cyc)", "sequence",
                     "latency (cyc)", "fail rate"});
        for (const auto &plan : planner.paretoFront(d)) {
            std::string seq;
            for (size_t i = plan.parts.size(); i-- > 0;) {
                seq += std::to_string(plan.parts[i]);
                if (i)
                    seq += ",";
            }
            t.addRow({TextTable::integer(static_cast<long long>(
                          plan.min_interval)),
                      seq,
                      TextTable::integer(static_cast<long long>(
                          plan.latency)),
                      TextTable::num(
                          std::exp(plan.log_fail_rate))});
        }
        t.print(stdout);
        std::printf("\n");
    }
    return 0;
}

int
cmdStripe(int argc, char **argv)
{
    CliFlags flags = CliFlags::parseOrExit(
        argc, argv, 2, {"segments", "lseg", "strength", "variant"});
    PeccConfig c;
    c.num_segments = flags.getInt("segments", 8);
    c.seg_len = flags.getInt("lseg", 8);
    c.correct = flags.getInt("strength", 1);
    std::string variant = flags.get("variant", "std");
    if (variant == "std") {
        c.variant = PeccVariant::Standard;
    } else if (variant == "overhead") {
        c.variant = PeccVariant::OverheadRegion;
    } else if (variant == "del-ins") {
        c.variant = PeccVariant::DelIns;
    } else {
        std::fprintf(stderr,
                     "unknown variant '%s' (std | overhead | "
                     "del-ins)\n",
                     variant.c_str());
        std::exit(2);
    }
    PeccLayout lay = computeLayout(c);
    AreaModel area;
    std::printf("stripe: %d segments x %d domains, m = %d (%s)\n",
                c.num_segments, c.seg_len, c.correct,
                variant.c_str());
    std::printf("  data domains        %d\n", c.dataDomains());
    std::printf("  extra domains       %d (paper accounting)\n",
                lay.extraDomains());
    std::printf("  extra read ports    %d\n", lay.extraReadPorts());
    std::printf("  extra write ports   %d\n",
                lay.extraWritePorts());
    std::printf("  storage overhead    %.1f%%\n",
                100.0 * lay.storageOverhead());
    std::printf("  area per data bit   %.2f F^2\n",
                area.areaPerDataBit(c));
    std::printf("  functional wire     %d slots\n", lay.wire_len);
    return 0;
}

void
usage()
{
    std::printf(
        "rtmsim - racetrack memory simulator (ISCA'15 'Hi-fi "
        "Playback' reproduction)\n\n"
        "  rtmsim run [--spec FILE.json] [--workload N|--trace P] "
        "[--tech T] [--scheme S]\n"
        "             [--requests N] [--divisor D] [--seed N] "
        "[--out OUT.json]\n"
        "             [--metrics OUT.json] [--trace-out OUT.json]\n"
        "             [--placement static|hot-center|adaptive] "
        "[--placement-epoch N]\n"
        "             [--swap-budget N] "
        "[--head-policy stay|return-home|center|predictive]\n"
        "             [--protection uniform|two-tier|"
        "differentiated] [--codeword-frames 1|2|4|8]\n"
        "             [--mc-tier exact|fast] [--mc-trials N]\n"
        "             [--stream-out J.jsonl|none] "
        "[--resume J.jsonl]\n"
        "  rtmsim spec [--file FILE.json] [--out OUT.json]\n"
        "  rtmsim rates\n"
        "  rtmsim plan [--lseg N] [--intensity OPS]\n"
        "  rtmsim stripe [--segments N] [--lseg N] [--strength M] "
        "[--variant std|overhead|del-ins]\n"
        "  rtmsim help\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }
    std::string cmd = argv[1];
    if (cmd == "run")
        return cmdRun(argc, argv);
    if (cmd == "spec")
        return cmdSpec(argc, argv);
    if (cmd == "rates")
        return cmdRates();
    if (cmd == "plan")
        return cmdPlan(argc, argv);
    if (cmd == "stripe")
        return cmdStripe(argc, argv);
    usage();
    return cmd == "help" ? 0 : 2;
}
