/**
 * @file
 * Racetrack LLC shift engine (paper Sec. 6.1 data mapping).
 *
 * A cache line is bit-interleaved across a group of kStripesPerLine
 * stripes; each stripe holds kDomainsPerStripe data domains split
 * into segments of kSegLen, so one stripe group stores that many line
 * frames (device/organisation.hh). All stripes of a group share one
 * shift controller and move in lockstep: serving a frame means
 * shifting the group so the frame's segment-local index sits under
 * the access ports.
 *
 * The engine tracks per-group head positions, plans shift sequences
 * through the control layer's ShiftAdapter (the policy code the shift
 * controller runs, with one memory-wide interval counter, paper
 * Sec. 5.3), and reports per-access shift latency, energy and
 * reliability decomposition. It deliberately
 * does not move functional bits: the cache simulator only needs
 * timing/energy/reliability, and the functional path is already
 * exercised end-to-end by the codec/control tests.
 */

#ifndef RTM_MEM_RM_BANK_HH
#define RTM_MEM_RM_BANK_HH

#include <cstdint>
#include <string>
#include <vector>

#include "control/adapter.hh"
#include "control/planner.hh"
#include "control/sts.hh"
#include "device/error_model.hh"
#include "mem/placement.hh"
#include "mem/protection.hh"
#include "model/reliability.hh"
#include "model/tech.hh"
#include "util/stats.hh"
#include "util/telemetry.hh"

namespace rtm
{

/** Shift cost of serving one frame access. */
struct ShiftCost
{
    Cycles latency = 0;          //!< shift cycles on the access path
    Joules energy = 0.0;         //!< shift + detection energy
    int total_steps = 0;         //!< steps moved (all sub-shifts)
    int sub_shifts = 0;          //!< number of shift operations
};

/** Aggregate shift-engine statistics. */
struct RmBankStats
{
    uint64_t accesses = 0;
    uint64_t shift_ops = 0;
    uint64_t shift_steps = 0;
    Cycles shift_cycles = 0;
    Joules shift_energy = 0.0;
    uint64_t plan_memo_hits = 0; //!< accesses served from the memo
    IntTally distance_histogram; //!< requested distances
    MttfAccumulator reliability;

    // Graceful degradation (see RmBank::reportUnrecoverable).
    uint64_t due_reports = 0;      //!< DUEs reported into the bank
    uint64_t degraded_groups = 0;  //!< groups retired so far
    uint64_t remapped_accesses = 0; //!< served via a remapped group

    // Placement migrations (hot-center online / adaptive): frame
    // moves scheduled by the placement policy. Their shift work is
    // also folded into shift_ops/shift_steps/shift_energy.
    uint64_t migrations = 0;      //!< frames moved
    uint64_t migration_steps = 0; //!< shift steps spent migrating

    // Protection domains: accesses spent fetching the shared
    // redundancy region of a pooled codeword (a real access served
    // through the normal shift path; also counted in accesses /
    // shift_steps above).
    uint64_t redundancy_accesses = 0;
    uint64_t redundancy_steps = 0;
};

/** Per-group slice of the bank aggregates (ledger validation). */
struct RmGroupStats
{
    uint64_t accesses = 0;
    uint64_t shift_ops = 0;
    uint64_t shift_steps = 0;
    uint64_t migration_steps = 0;
};

/** Racetrack LLC shift-engine config (geometry: device/organisation.hh). */
struct RmBankConfig
{
    uint64_t line_frames = 0;  //!< cache line frames to back
    Scheme scheme = Scheme::PeccSAdaptive;

    /** Head-rest policy applied when a group goes idle. */
    HeadPolicy head_policy = HeadPolicy::Stay;

    /**
     * Data-placement policy (mem/placement.hh): which slot each
     * frame occupies inside its group and where heads rest. The
     * default (`static`, no tracking) reproduces the historical
     * layout bit-identically.
     */
    PlacementConfig placement;

    /**
     * Protection-domain policy (mem/protection.hh): per-region
     * codeword geometry and scheme overrides. Overrides affect each
     * domain's reliability classification only; plan decomposition
     * and shift timing always follow `scheme`. The default
     * (uniform, single-frame codewords) reproduces the historical
     * accounting bit-identically.
     */
    ProtectionPolicy protection;

    /**
     * Graceful degradation: DUE reports tolerated per group before
     * the bank retires it and remaps its frames onto a healthy
     * group (capacity loss instead of a crash). 0 disables
     * degradation (legacy behaviour).
     */
    int group_retry_budget = 0;

    /**
     * Serve steady-state accesses from the per-bank shift-plan memo
     * (every plan the adapter may pick and every single-step run,
     * folded at construction) instead of folding on each access.
     * Both take the plan from the same ShiftAdapter::choose call and
     * fold it with the same function, so this switch only changes
     * *when* the fold runs and results are bit-identical either way
     * — the memo is keyed on everything a fold depends on (parts,
     * protection domain; never head, placement or degradation
     * state). It exists only to exercise the live fold (golden
     * cross-checks, the frozen reference simulator, baseline
     * benchmarking).
     */
    bool use_plan_memo = true;

    /**
     * Observability sink. Disabled (null) by default; when set the
     * bank registers counters/histograms once at construction and
     * pushes shift/degradation events. Instrumentation only reads
     * simulator state, so results are bit-identical either way.
     */
    TelemetryScope telemetry = {};
};

/**
 * Timing/energy/reliability model of all stripe groups in an LLC.
 */
class RmBank
{
  public:
    /**
     * @param config geometry + protection scheme
     * @param model  position-error model (rates)
     * @param tech   racetrack technology parameters (Table 4)
     */
    RmBank(const RmBankConfig &config,
           const PositionErrorModel *model, const TechParams &tech);

    // The adapter points at this bank's own planner.
    RmBank(const RmBank &) = delete;
    RmBank &operator=(const RmBank &) = delete;

    /**
     * Serve an access to a line frame at absolute time `now`.
     * Computes the group's required head movement, plans it under
     * the scheme's policy, and accumulates cost and reliability.
     */
    ShiftCost accessFrame(uint64_t frame_index, Cycles now);

    /**
     * Serve one LLC line access: the data frame's accessFrame and,
     * when the frame's domain pools codewords, the fetch of the
     * shared redundancy region in the codeword's base frame slot
     * (writes always; reads unless the domain is two-tier, whose
     * clean EDC probe needs no redundancy). The
     * fetch is a real access through the same path, tallied also in
     * `redundancy_accesses` / `redundancy_steps`. Returns the sum of
     * both costs.
     */
    ShiftCost accessLine(uint64_t frame_index, bool is_write,
                         Cycles now);

    /** Statistics accumulated so far. */
    const RmBankStats &stats() const { return stats_; }

    /** Energy of one shift operation of `steps` steps (one group). */
    Joules shiftOpEnergy(int steps) const;

    /**
     * Report an unrecoverable position error (DUE) observed on
     * `frame_index`'s group. Once a group accumulates
     * `group_retry_budget` reports it is marked degraded and its
     * frames are remapped to the next healthy group. Returns true
     * when this report retired the group.
     */
    bool reportUnrecoverable(uint64_t frame_index);

    /**
     * Group that actually serves `frame_index`. The remap chain is
     * resolved into a per-group memo at retirement time, so this is
     * a single table lookup on every call (and on every degraded
     * access in accessFrame).
     */
    uint64_t servingGroupFor(uint64_t frame_index) const;

    /**
     * Per-frame access counts accumulated by a tracking placement
     * (empty otherwise). A profiling pass (PlacementConfig::
     * track_counts) feeds these back as the offline hot-center
     * profile of a second run.
     */
    const std::vector<uint64_t> &frameAccessCounts() const
    {
        return placement_.frameCounts();
    }

    /** Whether `group` has been retired. */
    bool isDegraded(uint64_t group) const
    {
        return degraded_[group] != 0;
    }

    /** Number of stripe groups backing the bank. */
    uint64_t groupCount() const { return head_.size(); }

    /** Fraction of capacity lost to degraded groups. */
    double degradedCapacityFraction() const;

    /** Per-group slice of the aggregates (ledger validation). */
    const RmGroupStats &groupStats(uint64_t group) const
    {
        return group_stats_[group];
    }

    /**
     * Ledger invariant check: per-group counters must sum to the
     * bank aggregates and the degradation bookkeeping must be
     * internally consistent. Empty string when consistent.
     */
    std::string ledgerViolation() const;

    /** Whether steady-state accesses are served from the memo. */
    bool planMemoEnabled() const { return memo_enabled_; }

  private:
    /**
     * Cost of one shift decomposition under one protection domain:
     * the per-part latency/energy/step fold and the exponentiated
     * reliability decomposition of the full sequence (foldParts).
     * The memo holds one per plan, drift length and domain, so a
     * steady-state access is a table lookup plus accumulator adds.
     */
    struct PlanCost
    {
        Cycles latency = 0;
        Joules energy = 0.0;
        int total_steps = 0;
        int sub_shifts = 0;
        double sdc_prob = 0.0; //!< exp(sequence log_sdc)
        double due_prob = 0.0; //!< exp(sequence log_due)
    };
    RmBankConfig config_;
    const PositionErrorModel *model_;
    TechParams tech_;
    StsTiming timing_;
    ShiftPlanner planner_;
    /** The scheme's shift policy over planner_ (Sec. 5.3), with the
     *  paper's one memory-wide interval counter. */
    ShiftAdapter adapter_;
    /** Resolved protection table; domain 0 is the base domain. */
    ResolvedProtection protection_;
    /** Reliability model of each protection domain, by index. */
    std::vector<ReliabilityModel> domain_models_;

    /** Frame -> slot mapping + head-rest scheduling. */
    Placement placement_;
    /** Reused buffer for migrations emitted by recordAccess. */
    std::vector<PlacementMigration> migration_scratch_;

    /** Per-group head offset (believed == actual for timing). */
    std::vector<int8_t> head_;
    /** Cycle of each group's previous access (idle-drift policy). */
    std::vector<Cycles> last_access_;

    /** Memo tables, per domain `dom`:
     *  plan_memo_[dom * (kSegLen - 1) + d - 1][i] = cost of
     *  adapter_.plans(d)[i]; drift_memo_[dom * kSegLen + d] = cost
     *  of d single-step shifts (idle drift, migration). */
    std::vector<std::vector<PlanCost>> plan_memo_;
    std::vector<PlanCost> drift_memo_;
    /** Cached timing_.shiftCycles(1) / shiftOpEnergy(1). */
    Cycles one_step_cycles_ = 0;
    Joules one_step_energy_ = 0.0;
    bool memo_enabled_;

    /** Per-group degradation state: 1 once the group is retired. */
    std::vector<uint8_t> degraded_;
    /** DUE reports accumulated per group. */
    std::vector<uint32_t> due_count_;
    /** Remap target of a retired group (identity while healthy). */
    std::vector<uint64_t> remap_;
    /**
     * Memoised chain resolution: the group that serves each home
     * group today. Identity while healthy; rebuilt after every
     * retirement (rare) so the access path never walks the chain.
     */
    std::vector<uint64_t> serving_memo_;
    /** Per-group slices of the bank aggregates. */
    std::vector<RmGroupStats> group_stats_;
    /** One-shot warning when every group has been retired. */
    bool warned_all_degraded_ = false;

    RmBankStats stats_;

    // Telemetry handles: registered once at construction, null when
    // the scope is disabled (the hot path branches on t_events_).
    Telemetry *t_events_ = nullptr;
    Counter *t_accesses_ = nullptr;
    Counter *t_shift_ops_ = nullptr;
    Counter *t_shift_steps_ = nullptr;
    Counter *t_remaps_ = nullptr;
    Counter *t_due_reports_ = nullptr;
    Counter *t_retired_ = nullptr;
    Counter *t_migrations_ = nullptr;
    Counter *t_migration_steps_ = nullptr;
    LatencyHistogram *t_shift_latency_ = nullptr;

    static uint64_t groupOf(uint64_t frame)
    {
        return frame / kDomainsPerStripe;
    }

    /** The one cost fold: shift sub-shifts `parts` in sequence
     *  under protection domain `dom`'s reliability model. */
    PlanCost foldParts(const std::vector<int> &parts, int dom) const;

    /**
     * Precompute plan_memo_ and drift_memo_ with foldParts. The memo
     * depends on configuration only — head moves, migrations and
     * group retirement leave it valid — so construction calls this
     * once.
     */
    void buildPlanMemo();

    /**
     * Charge `steps` single-step shifts made off the access path
     * (the gentle drive) on `group` under domain `dom`: shift ops and
     * steps (bank and group), energy and reliability, mirrored into
     * telemetry. Idle drift and migrations both land here.
     */
    void chargeOffPath(uint64_t group, int dom, int steps);

    /** Drift the group's heads to their rest offset, if they have
     *  one and the group idled long enough, before serving at
     *  `now`. */
    void driftToRest(uint64_t group, Cycles now);

    /**
     * Charge one scheduled frame move: |to - from| off-path shifts
     * on the group that physically holds the frame, plus the
     * migration counters.
     */
    void chargeMigration(const PlacementMigration &m);

    /** Recompute serving_memo_ after a retirement. */
    void rebuildServingMemo();
};

} // namespace rtm

#endif // RTM_MEM_RM_BANK_HH
