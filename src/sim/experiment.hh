/**
 * @file
 * The unified experiment engine: one declarative run definition and
 * one scheduler for everything the paper's evaluation sweeps.
 *
 * An ExperimentSpec describes a whole evaluation as data — the
 * technology/scheme axes and workload set of a matrix sweep
 * (Figs. 14/16-18), the scenario catalogue of a fault-injection
 * campaign, the stripe-level stress drill, telemetry sinks and
 * seeds — and round-trips losslessly through JSON
 * (util/serde.hh). expandCells(spec) is the one description of a
 * run's cells, and runExperiment schedules exactly that list — matrix,
 * campaign, stress and Monte-Carlo cells alike — as one job set on
 * the global thread pool through the ExperimentEngine: no per-matrix
 * barrier, campaign and matrix cells interleave freely, yet results
 * and merged telemetry are bit-identical at any RTM_THREADS because
 * each cell derives its RNG streams from the spec alone and per-cell
 * telemetry shards merge in cell order.
 */

#ifndef RTM_SIM_EXPERIMENT_HH
#define RTM_SIM_EXPERIMENT_HH

#include <functional>
#include <string>
#include <vector>

#include "device/montecarlo.hh"
#include "sim/campaign.hh"
#include "sim/runner.hh"
#include "util/fields.hh"
#include "util/journal.hh"
#include "util/parallel.hh"
#include "util/serde.hh"

namespace rtm
{

/** Terminal state of one scheduled cell. */
enum class CellStatus
{
    Ok,        //!< body completed, result slot valid
    Failed,    //!< body threw (after exhausting the retry budget)
    TimedOut,  //!< cell or run deadline tripped mid-body
    Cancelled, //!< cancel token fired (or cell never claimed)
    Skipped    //!< replayed from a resume journal, body not run
};

/** Stable token for a CellStatus ("ok", "failed", ...). */
const char *cellStatusToken(CellStatus status);

/**
 * Structured outcome of one cell. The engine produces exactly one of
 * these per scheduled cell, whatever happens inside the body — a
 * throwing cell is *contained* here instead of aborting the job set.
 */
struct CellOutcome
{
    CellStatus status = CellStatus::Cancelled;
    std::string label;    //!< cell label (diagnostics)
    std::string error;    //!< last exception text (Failed only)
    int attempts = 0;     //!< body invocations (retries included)
    double start_s = 0.0; //!< monotonicSeconds() at cell start
    double wall_ms = 0.0; //!< start to end, every attempt included
};

/**
 * Resilience section of a spec: per-cell retry budget with
 * exponential backoff plus cell/run deadlines. All default to off so
 * a spec without the section behaves exactly as before.
 */
struct ResilienceSpec
{
    uint64_t retry_budget = 0;     //!< extra attempts per cell
    uint64_t backoff_ms = 10;      //!< base retry backoff (doubles)
    uint64_t cell_deadline_ms = 0; //!< per-cell watchdog (0 = none)
    uint64_t run_deadline_ms = 0;  //!< whole-run watchdog (0 = none)

    bool operator==(const ResilienceSpec &) const = default;
};

template <class V, FieldsOf<ResilienceSpec>... S>
void
forEachField(V &&v, S &...s)
{
    v("retry_budget", s.retry_budget...);
    v("backoff_ms", s.backoff_ms...);
    v("cell_deadline_ms", s.cell_deadline_ms...);
    v("run_deadline_ms", s.run_deadline_ms...);
}

/**
 * Deterministic job-set scheduler on the global ThreadPool.
 *
 * Jobs are independent cells; each gets a private telemetry shard
 * (lane = job index) and the shards merge into the root sink in job
 * order after the parallel region, so counters/events are
 * bit-identical for any RTM_THREADS. Jobs are claimed dynamically —
 * there is no barrier between a spec's sections, which is what lets
 * matrix and campaign cells interleave.
 *
 * Crash-safety contract: every scheduled cell ends in exactly one
 * CellOutcome. A throwing body is retried per the resilience policy
 * and then recorded as Failed without disturbing the other cells; a
 * cancel token or deadline stops the run cooperatively (in-flight
 * bodies observe their StopFlag, unclaimed cells stay Cancelled);
 * completed cells stream to an attached journal so an interrupted
 * run can resume via replayCell.
 */
class ExperimentEngine
{
  public:
    /**
     * One schedulable cell. `body` receives its telemetry shard plus
     * a StopFlag it should poll at natural checkpoints. `save`/`load`
     * serialize the cell's result slot for journaling/resume; either
     * may be null, which just disables checkpointing for that cell.
     */
    struct Cell
    {
        std::string label;
        std::function<void(TelemetryScope, StopFlag *)> body;
        std::function<JsonValue()> save;
        std::function<bool(const JsonValue &)> load;
        bool replayed = false; //!< load()ed; body will not run
    };

    /** Raise the per-shard event-ring capacity (max of requests). */
    void requestRingCapacity(size_t capacity)
    {
        if (capacity > ring_capacity_)
            ring_capacity_ = capacity;
    }

    /** Queue one cell. */
    void addCell(Cell cell) { cells_.push_back(std::move(cell)); }

    size_t jobCount() const { return cells_.size(); }

    /** Cooperative cancel source checked before/inside cells. */
    void setCancelToken(const CancelToken *cancel)
    {
        cancel_ = cancel;
    }

    /** Retry/backoff/deadline policy (defaults: all off). */
    void setResilience(const ResilienceSpec &resilience)
    {
        resilience_ = resilience;
    }

    /**
     * Stream each completed cell to `journal` (already opened, with
     * its header written). The writer is internally locked, so
     * workers append directly as cells finish.
     */
    void setJournal(JournalWriter *journal) { journal_ = journal; }

    /**
     * Test-only fault hook, called as hook(cell_index, attempt)
     * right before each body invocation; a throw from the hook is
     * handled exactly like a throw from the body.
     */
    void setFaultHook(std::function<void(size_t, int)> hook)
    {
        fault_hook_ = std::move(hook);
    }

    /**
     * Per-cell completion callback (worker threads, possibly
     * concurrently — the callback must be thread-safe). Used by
     * tools for progress and by tests to cancel mid-run.
     */
    void setOutcomeCallback(
        std::function<void(size_t, const CellOutcome &)> cb)
    {
        on_outcome_ = std::move(cb);
    }

    /**
     * Restore cell `index` from a journaled result instead of
     * running it: load() fills the result slot now and the cell is
     * recorded as Skipped by run(). Returns false (cell re-runs)
     * when the index is out of range, the cell has no loader, or
     * load() rejects the document.
     */
    bool replayCell(size_t index, const JsonValue &result);

    /**
     * Run every queued non-replayed cell on the global pool, then
     * merge the telemetry shards into `root` in job order and add one
     * "experiment.cell" span and "experiment.cell_wall_ms" sample per
     * executed cell. One-shot: the job list is consumed; outcomes()
     * holds one entry per cell afterwards.
     */
    void run(TelemetryScope root);

    /** One outcome per scheduled cell, filled by run(). */
    const std::vector<CellOutcome> &outcomes() const
    {
        return outcomes_;
    }

  private:
    void runCell(Cell &cell, size_t index, TelemetryScope shard,
                 double run_deadline);

    size_t ring_capacity_ = Telemetry::kDefaultRingCapacity;
    std::vector<Cell> cells_;
    std::vector<CellOutcome> outcomes_;
    const CancelToken *cancel_ = nullptr;
    ResilienceSpec resilience_;
    JournalWriter *journal_ = nullptr;
    std::function<void(size_t, int)> fault_hook_;
    std::function<void(size_t, const CellOutcome &)> on_outcome_;
};

/** Matrix section of a spec: workloads x (tech, scheme) options. */
struct MatrixSpec
{
    bool enabled = true;
    uint64_t requests = 60000;
    uint64_t warmup = 6000;
    uint64_t divisor = 16; //!< hierarchy/working-set shrink
    uint64_t seed = 42;
    /** Workload names; empty = every parsecProfiles() entry. */
    std::vector<std::string> workloads;
    /** LLC options; empty = standardLlcOptions(). */
    std::vector<LlcOption> options;

    bool operator==(const MatrixSpec &) const = default;
};

template <class V, FieldsOf<MatrixSpec>... S>
void
forEachField(V &&v, S &...s)
{
    v("enabled", s.enabled...);
    v("requests", s.requests...);
    v("warmup", s.warmup...);
    v("divisor", s.divisor...);
    v("seed", s.seed...);
    v("workloads", s.workloads...);
    v("options", HandParsed{s.options}...);
}

/**
 * The hand-written part of reading a matrix section (readFields):
 * the warmup default, option shortcuts, the matrix-level
 * `placement` default options inherit, and range checks.
 */
void finishRead(SpecReader &r, MatrixSpec &m);

/** Campaign section: fault scenarios x workloads (sim/campaign.hh). */
struct CampaignSpec
{
    bool enabled = false;
    /** Per-cell drill configuration. */
    CampaignConfig config;
    /** Scenario list; empty = standardScenarios(). */
    std::vector<ScenarioSpec> scenarios;
    /** Workload names; empty = swaptions, canneal, ferret. */
    std::vector<std::string> workloads;

    bool operator==(const CampaignSpec &) const = default;
};

template <class V, FieldsOf<CampaignSpec>... S>
void
forEachField(V &&v, S &...s)
{
    v("enabled", s.enabled...);
    v("accesses", s.config.accesses_per_cell...);
    v("seed", s.config.seed...);
    v("scale", s.config.scale...);
    v("policy", s.config.policy...);
    v("peak_ops_per_second", s.config.peak_ops_per_second...);
    v("workload_cores", s.config.workload_cores...);
    v("ring_capacity", s.config.telemetry_ring_capacity...);
    v("pecc", s.config.pecc...);
    v("recovery", s.config.recovery...);
    v("bank", SubObject{[&](auto &b) {
          b("frames", s.config.bank_frames...);
          b("due_prob", s.config.bank_due_prob...);
          b("retry_budget", s.config.group_retry_budget...);
      }});
    v("scenarios", HandParsed{s.scenarios}...);
    v("workloads", s.workloads...);
}

/** Scenario shortcuts and range checks (see MatrixSpec's). */
void finishRead(SpecReader &r, CampaignSpec &c);

/**
 * Stress section: the stripe-level fault-injection drill —
 * randomized seeks on one protected stripe with scaled error rates,
 * reconciled against the closed-form ReliabilityModel.
 */
struct StressSpec
{
    bool enabled = false;
    /** Token of a scheme with a stripe drill
     *  (SchemeRow::stripe_drill). */
    std::string scheme = "secded";
    double scale = 500.0; //!< error-rate acceleration
    uint64_t ops = 200000;
    int lseg = 8;
    uint64_t seed = 1;

    bool operator==(const StressSpec &) const = default;
};

template <class V, FieldsOf<StressSpec>... S>
void
forEachField(V &&v, S &...s)
{
    v("enabled", s.enabled...);
    v("scheme", s.scheme...);
    v("scale", s.scale...);
    v("ops", s.ops...);
    v("lseg", s.lseg...);
    v("seed", s.seed...);
}

/**
 * Monte-Carlo section: one device-level position-error extraction
 * through the batched kernel, with the reproducibility tier as a
 * first-class knob ("exact" = bit-identical to the scalar reference,
 * "fast" = batch-order draws pinned by their own digests).
 */
struct McSpec
{
    bool enabled = false;
    int distance = 7;           //!< steps per shift
    uint64_t trials = 200000;   //!< run() trials
    uint64_t fit_trials = 0;    //!< fitModel trials (0 = skip fit)
    uint64_t seed = 12345;
    std::string tier = "exact"; //!< exact | fast

    bool operator==(const McSpec &) const = default;
};

template <class V, FieldsOf<McSpec>... S>
void
forEachField(V &&v, S &...s)
{
    v("enabled", s.enabled...);
    v("distance", s.distance...);
    v("trials", s.trials...);
    v("fit_trials", s.fit_trials...);
    v("seed", s.seed...);
    v("tier", s.tier...);
}

/** One declarative experiment: every section plus output sinks. */
struct ExperimentSpec
{
    std::string name = "experiment";
    MatrixSpec matrix;
    CampaignSpec campaign;
    StressSpec stress;
    McSpec montecarlo;
    ResilienceSpec resilience;

    /**
     * Protection-domain policy applied to every racetrack matrix
     * cell (mem/protection.hh): uniform, per-cache-level, or
     * per-address-region codeword geometry and scheme overrides.
     * The default policy is the paper's per-frame configuration —
     * it is omitted from the emitted JSON, so pre-existing specs
     * keep their bytes and their resume-journal hashes.
     */
    ProtectionPolicy protection;

    // Output sinks (empty = disabled).
    std::string metrics_path; //!< telemetry registry JSON
    std::string trace_path;   //!< Chrome trace_event JSON
    std::string output_path;  //!< unified result JSON

    bool operator==(const ExperimentSpec &) const = default;
};

template <class V, FieldsOf<ExperimentSpec>... S>
void
forEachField(V &&v, S &...s)
{
    v("name", s.name...);
    v("matrix", s.matrix...);
    v("campaign", s.campaign...);
    v("stress", s.stress...);
    v("montecarlo", s.montecarlo...);
    v("resilience", s.resilience...);
    if (v.emitWhen((s.protection != ProtectionPolicy{})...))
        v("protection", s.protection...);
    v("telemetry", SubObject{[&](auto &t) {
          t("metrics", s.metrics_path...);
          t("trace", s.trace_path...);
      }});
    v("output", s.output_path...);
}

/**
 * Checks of the stress and montecarlo sections, plus the protection
 * checks: level names, region bounds and each domain's geometry
 * against the default hierarchy.
 */
void finishRead(SpecReader &r, ExperimentSpec &spec);

/**
 * SHA-256 of the spec's *result-determining* content: the normalized
 * spec with output sinks cleared and the resilience policy reset,
 * since neither affects any result bit. This is the identity a
 * resume journal is validated against — a journal taken under one
 * retry budget resumes fine under another, but never against a spec
 * whose cells would compute something else.
 */
std::string experimentSpecHash(const ExperimentSpec &spec);

/**
 * Resolve every defaulted axis to its explicit catalogue (empty
 * matrix workloads -> all PARSEC profiles, empty options -> the
 * standard LLC set, empty scenarios -> the standard catalogue, empty
 * campaign workloads -> the containment trio), so expansion and
 * emission are deterministic and emitted specs are self-contained.
 */
void normalizeExperimentSpec(ExperimentSpec *spec);

/** Emit a (normalized copy of the) spec; parse restores it. */
JsonValue experimentSpecToJson(const ExperimentSpec &spec);

/**
 * Parse a spec document. Returns false with newline-separated
 * dotted-path diagnostics on any malformed, mistyped or unknown
 * field; the result is normalized (parse -> emit -> parse is the
 * identity).
 */
bool experimentSpecFromJson(const JsonValue &doc,
                            ExperimentSpec *spec,
                            std::string *diag);

/** Load + parse a spec file (diagnostics carry the path). */
bool loadExperimentSpec(const std::string &path,
                        ExperimentSpec *spec, std::string *diag);

/** One expanded cell of a spec (flat, schedule-ready). */
struct ExperimentCell
{
    enum class Kind
    {
        Matrix,
        Campaign,
        Stress,
        MonteCarlo
    };

    Kind kind = Kind::Matrix;
    /** Index within the cell's own section (seeding/ordering). */
    size_t local_index = 0;
    std::string workload; //!< matrix/campaign cells
    LlcOption option;     //!< matrix cells
    ScenarioSpec scenario; //!< campaign cells

    /** Short human-readable cell name for diagnostics. */
    std::string label() const;

    bool operator==(const ExperimentCell &) const = default;
};

/**
 * Expand a spec into its flat cell list, the order runExperiment
 * schedules and journals: matrix cells first (workload-major), then
 * campaign cells (scenario-major), then the stress drill, then the
 * Monte-Carlo cell.
 */
std::vector<ExperimentCell>
expandCells(const ExperimentSpec &spec);

/** Outcome of the stress drill (counts vs analytic expectation). */
struct StressResult
{
    Scheme scheme = Scheme::SecdedPecc;
    PeccConfig pecc;
    uint64_t corrected = 0;
    uint64_t due = 0;
    uint64_t silent = 0;
    uint64_t clean = 0;
    double exp_corrected = 0.0;
    double exp_due = 0.0;
    double exp_sdc = 0.0;
    IntTally distances; //!< seek distances driven

    bool operator==(const StressResult &) const = default;
};

/**
 * Full-fidelity stress checkpoint keys (util/fields.hh); the
 * reporting view in the result document drops the p-ECC geometry
 * and the distance tally.
 */
template <class V, FieldsOf<StressResult>... S>
void
forEachField(V &&v, S &...s)
{
    v("scheme", s.scheme...);
    v("pecc", s.pecc...);
    v("corrected", s.corrected...);
    v("due", s.due...);
    v("silent", s.silent...);
    v("clean", s.clean...);
    v("expected_corrected", s.exp_corrected...);
    v("expected_due", s.exp_due...);
    v("expected_sdc", s.exp_sdc...);
    v("distances", s.distances...);
}

/**
 * Resolve a stress scheme token to the (scheme, stripe config) pair
 * the drill uses; false when the token names no stress scheme.
 */
bool stressSchemeConfig(const std::string &token, Scheme *scheme,
                        PeccConfig *config);

/** Run the stripe-level drill (spec.enabled is not consulted). */
StressResult runStressDrill(const StressSpec &spec,
                            TelemetryScope telemetry = {},
                            StopFlag *stop = nullptr);

/** Outcome of the Monte-Carlo cell. */
struct McRunResult
{
    int distance = 0;
    uint64_t trials = 0;
    std::string tier = "exact";
    double deviation_mean = 0.0;
    double deviation_stddev = 0.0;
    double step_prob_ok = 0.0;      //!< P(step error 0)
    double step_prob_plus1 = 0.0;   //!< P(step error +1)
    double step_prob_minus1 = 0.0;  //!< P(step error -1)
    bool has_fit = false;
    FittedModelParams fit;          //!< valid when has_fit

    bool operator==(const McRunResult &) const = default;
};

/** Keys of the Monte-Carlo result (journal and result document). */
template <class V, FieldsOf<McRunResult>... S>
void
forEachField(V &&v, S &...s)
{
    v("distance", s.distance...);
    v("trials", s.trials...);
    v("tier", s.tier...);
    v("deviation_mean", s.deviation_mean...);
    v("deviation_stddev", s.deviation_stddev...);
    v("step_prob_ok", s.step_prob_ok...);
    v("step_prob_plus1", s.step_prob_plus1...);
    v("step_prob_minus1", s.step_prob_minus1...);
    v("fit", PresentIf{s.has_fit, s.fit}...);
}

/** Run the Monte-Carlo cell (spec.enabled is not consulted). */
McRunResult runMcCell(const McSpec &spec,
                      TelemetryScope telemetry = {},
                      StopFlag *stop = nullptr);

/** Everything one spec run produced. */
struct ExperimentResult
{
    ExperimentSpec spec; //!< normalized spec the run used

    bool has_matrix = false;
    std::vector<WorkloadMatrixRow> matrix; //!< one row per workload

    bool has_campaign = false;
    CampaignResult campaign;

    bool has_stress = false;
    StressResult stress;

    bool has_mc = false;
    McRunResult mc;

    size_t cells = 0; //!< total scheduled cells

    /** One structured outcome per scheduled cell (engine order). */
    std::vector<CellOutcome> outcomes;
    uint64_t ok_cells = 0;
    uint64_t failed_cells = 0;
    uint64_t timed_out_cells = 0;
    uint64_t cancelled_cells = 0;
    uint64_t replayed_cells = 0; //!< restored from a resume journal
    /** True when any cell was cancelled or timed out — the result is
     *  incomplete and (with a journal) resumable. */
    bool interrupted = false;

    /** Every cell completed or was replayed — results are final. */
    bool complete() const
    {
        return ok_cells + replayed_cells ==
               static_cast<uint64_t>(cells);
    }
};

/**
 * Cross-run controls for runExperiment: cooperative cancellation,
 * checkpoint streaming, resume, and the test-only fault hook. All
 * default to off, in which case runExperiment behaves exactly as it
 * always has.
 */
struct RunControl
{
    /** Cancel source (signal handlers route here). */
    const CancelToken *cancel = nullptr;
    /** Stream completed cells to this journal ("" = none). */
    std::string stream_path;
    /** Replay completed cells from this journal ("" = fresh run). */
    std::string resume_path;
    /** Test-only per-attempt fault hook (see setFaultHook). */
    std::function<void(size_t, int)> fault_hook;
    /** Per-cell completion callback (thread-safe required). */
    std::function<void(size_t, const CellOutcome &)> on_cell;
};

/**
 * Validate a parsed journal against the run it would resume: header
 * present, spec hash / section seeds / cell count all matching.
 * Returns an empty string when compatible, else a diagnostic.
 */
std::string journalResumeError(const JournalFile &journal,
                               const ExperimentSpec &spec,
                               size_t cells);

/** The journal header a run of `spec` writes. */
JournalHeader makeJournalHeader(const ExperimentSpec &spec,
                                size_t cells);

/**
 * Run a whole spec on the engine: every enabled section expands into
 * cells scheduled as ONE job set (matrix and campaign cells
 * interleave on the pool), bit-identical at any RTM_THREADS.
 *
 * With `control`, the run is crash-safe end to end: a cell that
 * throws is retried per spec.resilience and contained as a Failed
 * outcome, completed cells stream to control.stream_path, a prior
 * journal replays via control.resume_path (skipping its cells and
 * reproducing the bit-identical merge), and control.cancel plus the
 * resilience deadlines stop the run cooperatively.
 *
 * @param model position-error model for matrix cells; null uses the
 *              paper-calibrated model. Campaign/stress cells build
 *              their own scaled models per cell, as always.
 */
ExperimentResult runExperiment(const ExperimentSpec &spec,
                               const PositionErrorModel *model =
                                   nullptr,
                               TelemetryScope telemetry = {},
                               const RunControl &control = {});

/** One matrix cell result as JSON (journal/result schema). */
JsonValue simResultToJson(const std::string &workload,
                          const LlcOption &opt, const SimResult &r);

/** Restore a matrix cell result; false on a malformed document (any
 *  field present but mistyped, out of range or unknown). */
bool simResultFromJson(const JsonValue &doc, SimResult *out);

/**
 * SHA-256 over the result *sections* only (matrix/campaign/stress/
 * montecarlo, compact JSON) — the replay identity. Two runs of the
 * same spec produce the same digest whether executed in one pass or
 * killed and resumed, at any RTM_THREADS.
 */
std::string experimentResultDigest(const ExperimentResult &result);

/** The unified result document (spec + per-section results). */
JsonValue experimentResultToJson(const ExperimentResult &result);

/** Write experimentResultToJson; false on I/O error. */
bool writeExperimentJson(const ExperimentResult &result,
                         const std::string &path);

} // namespace rtm

#endif // RTM_SIM_EXPERIMENT_HH
