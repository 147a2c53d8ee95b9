/**
 * @file
 * rtm_perfbench - the measuring process of the repository benchmark
 * (see README.md in this directory; run.py drives it).
 *
 *   rtm_perfbench info
 *   rtm_perfbench run   --spec SPEC.json --out DIR
 *   rtm_perfbench trace --spec SPEC.json --probe PROBE.json --out DIR
 *
 * `run` is one cold experiment made through the same public calls as
 * `rtmsim run --spec`: loadExperimentSpec, runExperiment with the
 * checkpoint journal streaming to DIR, writeExperimentJson and
 * experimentResultDigest. All timing is host time taken around those
 * calls; per-cell wall times come from RunControl::on_cell.
 *
 * `trace` makes the same experiment with the program's telemetry on
 * and spans around every phase, then runs the per-layer ladder
 * (ladder.hh) on the spec's cells, plus the probe spec's sections for
 * cell kinds the spec lacks, and writes the spans to DIR/trace.json.
 *
 * After each cell the worker that ran it takes a 3 ms reading of the
 * host's speed (hostSpeed); run.py scales timings by those readings,
 * because this class of host drifts by tens of percent over tens of
 * seconds.
 *
 * Every mode prints one JSON object on the last line of stdout.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "ladder.hh"
#include "sim/experiment.hh"
#include "tracer.hh"
#include "util/parallel.hh"
#include "util/serde.hh"

using namespace rtm;
using perfbench::LadderSection;
using perfbench::LayerFigures;
using perfbench::nowNs;
using perfbench::Tracer;

namespace
{

const char *const kKinds[] = {"matrix", "campaign", "stress", "mc"};

/** Length of one host-speed reading (hostSpeed). */
constexpr double kCalibrateSeconds = 0.003;

const char *
kindName(ExperimentCell::Kind kind)
{
    return kKinds[static_cast<int>(kind)];
}

/** One finished cell as the engine reported it. */
struct CellTiming
{
    size_t index = 0;
    int64_t end_ns = 0;
    double wall_ms = 0.0;
    int lane = 0;
    double speed = 0.0; //!< hostSpeed() on the lane right after
};

/** One experiment made through the public run path, with timings. */
struct EngineRun
{
    ExperimentResult result;
    std::vector<CellTiming> cells;
    int64_t first_dispatch_ns = 0;
    int64_t engine_end_ns = 0;
    int64_t write_end_ns = 0;
    int64_t digest_end_ns = 0;
    std::string digest;
    std::vector<std::string> failures;
    int64_t calibration_ns = 0; //!< spent in hostSpeed(), all lanes
};

/** Stable small id per engine worker thread (trace lanes). */
int
workerLane()
{
    static std::atomic<int> next{1};
    thread_local const int lane = next++;
    return lane;
}

double
seconds(int64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

/**
 * Host speed right now, on the calling thread: iterations per second
 * of a fixed kernel (an LCG driving read-modify-writes over a private
 * 2 MiB table, integer work plus cache traffic as in the simulator).
 * The kernel never changes, so the ratio of two readings is the ratio
 * of the host's speed at the two moments; run.py scales each cell's
 * wall time by the readings its worker took around it.
 */
double
hostSpeed()
{
    constexpr size_t kWords = size_t{1} << 18;
    thread_local std::vector<uint64_t> table(kWords, 0);
    uint64_t x = table[0] + 1, n = 0;
    const int64_t start = nowNs();
    const int64_t stop =
        start + static_cast<int64_t>(kCalibrateSeconds * 1e9);
    int64_t now = start;
    uint64_t acc = 0;
    while (now < stop) {
        for (int i = 0; i < 2048; ++i) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            uint64_t &slot = table[(x >> 40) & (kWords - 1)];
            slot = (slot ^ x) * 0x9e3779b97f4a7c15ULL;
            // A data-dependent branch per step, as in cache and
            // planner lookups.
            if ((slot >> 61) & 1)
                acc += slot >> 7;
            else
                acc ^= x >> 3;
        }
        n += 2048;
        now = nowNs();
    }
    x += acc;
    table[0] += x;
    return static_cast<double>(n) / seconds(now - start);
}

EngineRun
runEngine(const ExperimentSpec &spec, const std::string &out_dir,
          TelemetryScope telemetry)
{
    EngineRun run;
    std::mutex mutex;
    const std::string out_path = out_dir + "/result.json";
    RunControl control;
    control.stream_path = out_path + ".journal.jsonl";
    control.on_cell = [&](size_t index, const CellOutcome &o) {
        const int64_t t = nowNs();
        const int lane = workerLane();
        const double speed = hostSpeed();
        const int64_t spent = nowNs() - t;
        std::lock_guard<std::mutex> lock(mutex);
        run.cells.push_back({index, t, o.wall_ms, lane, speed});
        run.calibration_ns += spent;
    };
    const int64_t start = nowNs();
    run.result = runExperiment(spec, nullptr, telemetry, control);
    run.engine_end_ns = nowNs();
    if (!writeExperimentJson(run.result, out_path))
        run.failures.push_back("cannot write " + out_path);
    run.write_end_ns = nowNs();
    run.digest = experimentResultDigest(run.result);
    run.digest_end_ns = nowNs();

    // A cell is dispatched wall_ms before the engine reports it.
    run.first_dispatch_ns = run.cells.empty() ? start : INT64_MAX;
    for (const CellTiming &c : run.cells)
        run.first_dispatch_ns = std::min(
            run.first_dispatch_ns,
            c.end_ns - static_cast<int64_t>(c.wall_ms * 1e6));
    std::sort(run.cells.begin(), run.cells.end(),
              [](const CellTiming &a, const CellTiming &b) {
                  return a.index < b.index;
              });

    // The program's own checks.
    const ExperimentResult &r = run.result;
    if (!r.complete())
        run.failures.push_back(
            std::to_string(r.ok_cells) + " of " +
            std::to_string(r.cells) + " cells completed");
    for (const CellOutcome &o : r.outcomes)
        if (o.status != CellStatus::Ok)
            run.failures.push_back(o.label + ": " +
                                   cellStatusToken(o.status) + " " +
                                   o.error);
    if (r.has_campaign) {
        for (const CampaignCellResult &c : r.campaign.cells) {
            const std::string label = c.scenario + "/" + c.workload;
            if (!c.contained)
                run.failures.push_back(label + ": not contained: " +
                                       c.violation);
            const std::string v = controllerLedgerViolation(c.controller);
            if (!v.empty())
                run.failures.push_back(label + ": controller ledger: " +
                                       v);
        }
        if (!r.campaign.allContained())
            run.failures.push_back("campaign: not all cells contained");
    }
    return run;
}

/** Simulated operations one run of `spec` performs. */
uint64_t
simulatedRequests(const ExperimentSpec &spec)
{
    uint64_t n = 0;
    if (spec.matrix.enabled)
        n += spec.matrix.workloads.size() * spec.matrix.options.size() *
             (spec.matrix.requests + spec.matrix.warmup);
    if (spec.campaign.enabled)
        n += spec.campaign.scenarios.size() *
             spec.campaign.workloads.size() * 2 *
             spec.campaign.config.accesses_per_cell;
    if (spec.stress.enabled)
        n += spec.stress.ops;
    if (spec.montecarlo.enabled)
        n += spec.montecarlo.trials + spec.montecarlo.fit_trials;
    return n;
}

bool
hasShifts(MemTech tech)
{
    return tech == MemTech::Racetrack || tech == MemTech::RacetrackIdeal;
}

/**
 * Simulated execution time, geometric mean over cells: matrix cells'
 * SimResult::seconds, or (campaign-only specs) each drill's summed
 * controller access latency.
 */
double
simExecGeomean(const ExperimentResult &r)
{
    std::vector<double> secs;
    for (const WorkloadMatrixRow &row : r.matrix)
        for (const SimResult &s : row.results)
            secs.push_back(s.seconds);
    if (secs.empty())
        for (const CampaignCellResult &c : r.campaign.cells)
            secs.push_back(cyclesToSeconds(
                static_cast<Cycles>(c.access_latency.sum())));
    return secs.empty() ? 0.0 : geomean(secs);
}

/** Shift steps per access over racetrack matrix cells (else drills). */
double
shiftStepsPerAccess(const ExperimentResult &r)
{
    uint64_t steps = 0, accesses = 0;
    for (const WorkloadMatrixRow &row : r.matrix)
        for (const SimResult &s : row.results)
            if (hasShifts(s.llc_tech)) {
                steps += s.shift_steps;
                accesses += s.llc_accesses;
            }
    if (accesses == 0)
        for (const CampaignCellResult &c : r.campaign.cells) {
            steps += c.controller.shift_steps;
            accesses += c.controller.accesses;
        }
    return accesses ? static_cast<double>(steps) /
                          static_cast<double>(accesses)
                    : 0.0;
}

double
ratio(double a, double b)
{
    return b > 0.0 ? a / b : 0.0;
}

JsonValue
stringList(const std::vector<std::string> &items)
{
    JsonValue out = JsonValue::array();
    for (const std::string &s : items)
        out.push(s);
    return out;
}

/** Fields every mode reports about one engine run. */
JsonValue
runReport(const ExperimentSpec &spec, const EngineRun &run,
          int64_t t_main)
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const double cpu_s =
        static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
        static_cast<double>(usage.ru_utime.tv_usec +
                            usage.ru_stime.tv_usec) *
            1e-6;

    const std::vector<ExperimentCell> cells = expandCells(spec);
    JsonValue kinds = JsonValue::array();
    JsonValue walls = JsonValue::array();
    JsonValue speeds = JsonValue::array();
    JsonValue lanes = JsonValue::array();
    for (const CellTiming &c : run.cells) {
        kinds.push(kindName(cells[c.index].kind));
        walls.push(c.wall_ms);
        speeds.push(c.speed);
        lanes.push(c.lane);
    }
    JsonValue doc = JsonValue::object();
    doc.set("setup_s", seconds(run.first_dispatch_ns - t_main));
    doc.set("run_s", seconds(run.digest_end_ns - run.first_dispatch_ns));
    doc.set("cpu_s", cpu_s);
    doc.set("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);
    doc.set("threads", static_cast<int>(ThreadPool::global().threads()));
    doc.set("digest", run.digest);
    doc.set("cells", static_cast<uint64_t>(run.result.cells));
    doc.set("failed_cells",
            run.result.cells - run.result.ok_cells);
    doc.set("requests", simulatedRequests(spec));
    doc.set("cell_kind", std::move(kinds));
    doc.set("cell_ms", std::move(walls));
    doc.set("cell_speed", std::move(speeds));
    doc.set("cell_lane", std::move(lanes));
    doc.set("calibration_s", seconds(run.calibration_ns));
    doc.set("sim_exec_s_geomean", simExecGeomean(run.result));
    doc.set("shift_steps_per_access", shiftStepsPerAccess(run.result));
    return doc;
}

bool
loadSpec(const std::string &path, ExperimentSpec *spec)
{
    std::string diag;
    if (!loadExperimentSpec(path, spec, &diag)) {
        std::fprintf(stderr, "%s\n", diag.c_str());
        return false;
    }
    normalizeExperimentSpec(spec);
    return true;
}

int
cmdRun(const std::string &spec_path, const std::string &out_dir,
       int64_t t_main)
{
    ExperimentSpec spec;
    if (!loadSpec(spec_path, &spec))
        return 2;
    const EngineRun run = runEngine(spec, out_dir, {});
    JsonValue doc = runReport(spec, run, t_main);
    doc.set("failures", stringList(run.failures));
    std::printf("%s\n", doc.dump(0).c_str());
    return 0;
}

/** Median of the engine's wall times for cells of `kind` (ms). */
double
medianCellMs(const std::vector<ExperimentCell> &cells,
             const EngineRun &run, ExperimentCell::Kind kind)
{
    std::vector<double> ms;
    for (const CellTiming &c : run.cells)
        if (cells[c.index].kind == kind)
            ms.push_back(c.wall_ms);
    if (ms.empty())
        return 0.0;
    std::sort(ms.begin(), ms.end());
    const size_t n = ms.size();
    return n % 2 ? ms[n / 2] : 0.5 * (ms[n / 2 - 1] + ms[n / 2]);
}

int
cmdTrace(const std::string &spec_path, const std::string &probe_path,
         const std::string &out_dir, int64_t t_main)
{
    Tracer tracer(t_main);
    ExperimentSpec probe;
    if (!loadSpec(probe_path, &probe))
        return 2;
    ExperimentSpec spec;
    bool loaded = false;
    const int64_t spec_load_ns = tracer.time(
        "util.spec_load", -1, [&] { loaded = loadSpec(spec_path, &spec); });
    const int64_t spec_loaded = nowNs();
    if (!loaded)
        return 2;

    // The experiment itself, with the program's telemetry on.
    Telemetry telemetry(1 << 15);
    const EngineRun run = runEngine(spec, out_dir, &telemetry);
    tracer.add("sim.setup", spec_loaded, run.first_dispatch_ns, -1, -1, 0);
    const int engine = tracer.add("sim.engine", run.first_dispatch_ns,
                                  run.engine_end_ns, -1, -1, 0);
    const std::vector<ExperimentCell> cells = expandCells(spec);
    for (const CellTiming &c : run.cells)
        tracer.add(std::string("sim.cell.") + kindName(cells[c.index].kind),
                   c.end_ns - static_cast<int64_t>(c.wall_ms * 1e6),
                   c.end_ns, engine, static_cast<int64_t>(c.index),
                   c.lane);
    tracer.add("util.result_write", run.engine_end_ns, run.write_end_ns,
               -1, -1, 0);
    tracer.add("util.digest", run.write_end_ns, run.digest_end_ns, -1, -1,
               0);

    // The per-layer ladder: every section of the spec, then the probe
    // sections for the cell kinds the spec does not have.
    LayerFigures fig;
    fig.failures = run.failures;
    probe.matrix.enabled = probe.matrix.enabled && !spec.matrix.enabled;
    probe.campaign.enabled =
        probe.campaign.enabled && !spec.campaign.enabled;
    probe.stress.enabled = probe.stress.enabled && !spec.stress.enabled;
    probe.montecarlo.enabled =
        probe.montecarlo.enabled && !spec.montecarlo.enabled;
    const int ladder = tracer.open("bench.ladder");
    for (const LadderSection &section :
         {LadderSection{&spec, &run.result, true, 0},
          LadderSection{&probe, nullptr, false, 10000000}}) {
        perfbench::ladderMatrix(tracer, section, &fig);
        perfbench::ladderCampaign(tracer, section, &fig);
        perfbench::ladderStress(tracer, section, &fig);
        perfbench::ladderMonteCarlo(tracer, section, &fig);
    }
    perfbench::ladderErrorModel(tracer, &fig);
    perfbench::ladderJournal(tracer, run.result,
                             out_dir + "/ladder.journal.jsonl", &fig);
    tracer.close(ladder);

    const double req = static_cast<double>(fig.requests);
    const ControllerStats &cs = fig.controller;
    const double ctl_acc = static_cast<double>(cs.accesses);
    const double rm_acc = static_cast<double>(fig.rm_accesses);
    JsonValue layers = JsonValue::object();
    auto cellMs = [&](ExperimentCell::Kind kind, bool in_spec,
                      double probe_ms) {
        return in_spec ? medianCellMs(cells, run, kind) : probe_ms;
    };
    layers.set("sim.cell_ms.matrix",
               cellMs(ExperimentCell::Kind::Matrix, spec.matrix.enabled,
                      ratio(fig.simulate_ns * 1e-6,
                            static_cast<double>(fig.matrix_cells))));
    layers.set("sim.cell_ms.campaign",
               cellMs(ExperimentCell::Kind::Campaign,
                      spec.campaign.enabled,
                      ratio(fig.drill_ns * 1e-6,
                            static_cast<double>(fig.drills))));
    layers.set("sim.cell_ms.stress",
               cellMs(ExperimentCell::Kind::Stress, spec.stress.enabled,
                      fig.stress_ns * 1e-6));
    layers.set("sim.cell_ms.mc",
               cellMs(ExperimentCell::Kind::MonteCarlo,
                      spec.montecarlo.enabled,
                      (fig.mc_run_ns + fig.mc_fit_ns) * 1e-6));
    // Engine capacity over its wall time, less the workers' host-speed
    // readings (benchmark work, not engine idleness).
    double busy_ms = 0.0;
    for (const CellTiming &c : run.cells)
        busy_ms += c.wall_ms;
    const double threads = ThreadPool::global().threads();
    layers.set("sim.engine_idle_frac",
               1.0 - ratio(busy_ms * 1e-3,
                           threads * seconds(run.engine_end_ns -
                                             run.first_dispatch_ns) -
                               seconds(run.calibration_ns)));
    layers.set("sim.simulate_ns_per_req",
               ratio(static_cast<double>(fig.simulate_ns), req));
    layers.set("sim.loop_self_ns_per_req",
               ratio(static_cast<double>(fig.simulate_ns - fig.gen_ns -
                                         fig.hierarchy_ns),
                     req));
    layers.set("sim.fault_drill_ms",
               ratio(fig.drill_ns * 1e-6, static_cast<double>(fig.drills)));
    layers.set("trace.gen_ns_per_req",
               ratio(static_cast<double>(fig.gen_ns), req));
    layers.set("mem.hierarchy_ns_per_access",
               ratio(static_cast<double>(fig.hierarchy_ns), req));
    const char *const level_names[] = {"l1", "l2", "l3", "dram"};
    for (int l = 0; l < perfbench::kLevels; ++l)
        layers.set(std::string("mem.access_ns.") + level_names[l],
                   ratio(static_cast<double>(fig.level_ns[l]),
                         static_cast<double>(fig.level_samples[l])));
    layers.set("mem.l1_hit_ratio",
               ratio(static_cast<double>(fig.l1_hits),
                     static_cast<double>(fig.l1_accesses)));
    layers.set("mem.l2_hit_ratio",
               ratio(static_cast<double>(fig.l2_hits),
                     static_cast<double>(fig.l2_accesses)));
    layers.set("mem.l3_hit_ratio",
               ratio(static_cast<double>(fig.l3_hits),
                     static_cast<double>(fig.l3_accesses)));
    layers.set("mem.hierarchy_build_ms",
               ratio(fig.hierarchy_build_ns * 1e-6,
                     static_cast<double>(fig.matrix_cells)));
    layers.set("mem.rm.shift_ops_per_access",
               ratio(static_cast<double>(fig.rm_shift_ops), rm_acc));
    layers.set("mem.rm.plan_memo_hit_ratio",
               ratio(static_cast<double>(fig.rm_memo_hits), rm_acc));
    layers.set("mem.rm.migrations_per_kacc",
               ratio(1e3 * static_cast<double>(fig.rm_migrations), rm_acc));
    layers.set("mem.rm.redundancy_per_kacc",
               ratio(1e3 * static_cast<double>(fig.rm_redundancy), rm_acc));
    layers.set("mem.rm_live_ns_per_access",
               ratio(static_cast<double>(fig.rm_live_ns),
                     static_cast<double>(fig.rm_live_accesses)));
    layers.set("control.access_ns",
               ratio(static_cast<double>(fig.control_ns), ctl_acc));
    layers.set("control.recovered_ratio",
               ratio(static_cast<double>(cs.corrected_errors +
                                         cs.recovered_retry +
                                         cs.recovered_realign +
                                         cs.recovered_scrub),
                     static_cast<double>(cs.detected_errors)));
    layers.set("control.retries_per_kacc",
               ratio(1e3 * static_cast<double>(cs.retry_attempts), ctl_acc));
    layers.set("control.scrubs_per_kacc",
               ratio(1e3 * static_cast<double>(cs.scrubs), ctl_acc));
    layers.set("control.due_per_kacc",
               ratio(1e3 * static_cast<double>(cs.unrecoverable), ctl_acc));
    layers.set("codec.readout_us",
               ratio(fig.readout_ns * 1e-3,
                     static_cast<double>(fig.readouts)));
    layers.set("model.sequence_ns",
               ratio(static_cast<double>(fig.sequence_ns),
                     static_cast<double>(fig.sequences)));
    layers.set("device.mc_trials_per_s",
               ratio(static_cast<double>(fig.mc_trials),
                     seconds(fig.mc_run_ns)));
    layers.set("device.mc_fit_s", seconds(fig.mc_fit_ns));
    layers.set("device.error_model_build_ms",
               ratio(fig.error_model_ns * 1e-6,
                     static_cast<double>(fig.error_models)));
    layers.set("device.injected_per_kacc",
               ratio(1e3 * static_cast<double>(fig.injected), ctl_acc));
    layers.set("util.spec_load_ms", spec_load_ns * 1e-6);
    layers.set("util.journal_us_per_cell",
               ratio(fig.journal_ns * 1e-3,
                     static_cast<double>(fig.journal_cells)));
    layers.set("util.result_write_ms",
               (run.write_end_ns - run.engine_end_ns) * 1e-6);

    // Reconciliation: the share of the traced wall time that no
    // layer's self time accounts for.
    const double wall = seconds(nowNs() - t_main);
    double attributed = 0.0;
    JsonValue self = JsonValue::object();
    for (const auto &[layer, s] : tracer.layerSelfSeconds()) {
        attributed += s;
        self.set(layer, s);
    }
    layers.set("unattributed_frac", 1.0 - ratio(attributed, wall));

    const std::string trace_path = out_dir + "/trace.json";
    if (!tracer.writeChromeTrace(trace_path))
        fig.failures.push_back("cannot write " + trace_path);
    JsonValue doc = runReport(spec, run, t_main);
    doc.set("layers", std::move(layers));
    doc.set("layer_self_s", std::move(self));
    doc.set("traced_wall_s", wall);
    doc.set("spans", static_cast<uint64_t>(tracer.spans().size()));
    doc.set("trace_file", trace_path);
    doc.set("failures", stringList(fig.failures));
    std::printf("%s\n", doc.dump(0).c_str());
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: rtm_perfbench info\n"
                 "       rtm_perfbench run --spec S.json --out DIR\n"
                 "       rtm_perfbench trace --spec S.json --probe "
                 "P.json --out DIR\n");
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const int64_t t_main = nowNs();
    if (argc < 2)
        return usage();
    const std::string mode = argv[1];
    std::string spec, probe, out;
    for (int i = 2; i + 1 < argc; i += 2) {
        if (!std::strcmp(argv[i], "--spec"))
            spec = argv[i + 1];
        else if (!std::strcmp(argv[i], "--probe"))
            probe = argv[i + 1];
        else if (!std::strcmp(argv[i], "--out"))
            out = argv[i + 1];
        else
            return usage();
    }
    if (mode == "info") {
        JsonValue doc = JsonValue::object();
        doc.set("compiler", RTM_PERFBENCH_COMPILER);
        doc.set("build_type", RTM_PERFBENCH_BUILD_TYPE);
        doc.set("configured_threads",
                static_cast<int>(ThreadPool::configuredThreads()));
        std::printf("%s\n", doc.dump(0).c_str());
        return 0;
    }
    if (mode == "run" && !spec.empty() && !out.empty())
        return cmdRun(spec, out, t_main);
    if (mode == "trace" && !spec.empty() && !probe.empty() && !out.empty())
        return cmdTrace(spec, probe, out, t_main);
    return usage();
}
