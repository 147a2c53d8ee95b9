/**
 * @file
 * Racetrack LLC shift engine (paper Sec. 6.1 data mapping).
 *
 * A 64-byte cache line is bit-interleaved across a group of 512
 * stripes; each stripe holds 64 data domains split into 8 segments by
 * default, so one stripe group stores 64 line frames. All stripes of
 * a group share one shift controller and move in lockstep: serving a
 * frame means shifting the group so the frame's segment-local index
 * sits under the access ports.
 *
 * The engine tracks per-group head positions, plans shift sequences
 * through the control layer's adapter policy, and reports per-access
 * shift latency, energy and reliability decomposition. It deliberately
 * does not move functional bits: the cache simulator only needs
 * timing/energy/reliability, and the functional path is already
 * exercised end-to-end by the codec/control tests.
 */

#ifndef RTM_MEM_RM_BANK_HH
#define RTM_MEM_RM_BANK_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "control/adapter.hh"
#include "control/head_policy.hh"
#include "control/planner.hh"
#include "control/sts.hh"
#include "device/error_model.hh"
#include "mem/placement.hh"
#include "mem/protection.hh"
#include "model/reliability.hh"
#include "model/tech.hh"
#include "util/divider.hh"
#include "util/stats.hh"
#include "util/telemetry.hh"

namespace rtm
{

/** Shift cost of serving one frame access. */
struct ShiftCost
{
    Cycles latency = 0;          //!< shift cycles on the access path
    Cycles stall = 0;            //!< contention wait (in latency)
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

/** Configuration of the racetrack LLC shift engine. */
struct RmBankConfig
{
    uint64_t line_frames = 0;  //!< cache line frames to back
    int frames_per_group = 64; //!< data domains per stripe
    int seg_len = 8;           //!< Lseg
    int stripes_per_group = 512;
    Scheme scheme = Scheme::PeccSAdaptive;
    double peak_ops_per_second = 83e6; //!< paper's estimate
    double mttf_target_s = kDefaultSafeMttfSeconds;

    /**
     * Requests serviced concurrently by interleaved sub-banks.
     * Paper Sec. 5.3: "if multiple requests are serviced
     * simultaneously by an interleaving technique, we only need to
     * increase run-time intensity accordingly" - the adaptive policy
     * divides the observed interval by this factor.
     */
    int interleave_ways = 1;

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
     * Model per-group occupancy: a request arriving while the
     * group's previous shift sequence is still draining stalls for
     * the remainder (adds to the returned latency).
     */
    bool model_contention = false;

    /**
     * Graceful degradation: DUE reports tolerated per group before
     * the bank retires it and remaps its frames onto a healthy
     * group (capacity loss instead of a crash). 0 disables
     * degradation (legacy behaviour).
     */
    int group_retry_budget = 0;

    /**
     * Serve steady-state accesses from the per-bank shift-plan memo
     * (plan costs precomputed per (distance, interval bucket) at
     * construction) instead of replanning and refolding reliability
     * on every access. Results are bit-identical either way — the
     * memo is an exact cache keyed on everything the plan depends on
     * (distance, interval bucket, protection domain; never head,
     * placement or degradation state) — so this switch exists only
     * to exercise the planner live (golden cross-checks, the frozen
     * reference simulator, baseline benchmarking).
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

    /**
     * Serve an access to a line frame at absolute time `now`.
     * Computes the group's required head movement, plans it under
     * the scheme's policy, and accumulates cost and reliability.
     */
    ShiftCost accessFrame(uint64_t frame_index, Cycles now);

    /**
     * Serve the redundancy-region fetch a pooled codeword needs on
     * top of the data access to `frame_index` (writes always; reads
     * only when the domain is not two-tier). The shared check
     * region lives in the codeword's base frame's slot, so this is
     * a real access — head movement, shifts, energy, reliability —
     * through the normal path, tallied separately in
     * `redundancy_accesses` / `redundancy_steps`. No-op ({}) when
     * the frame's domain keeps the paper's single-frame codewords.
     */
    ShiftCost accessRedundancy(uint64_t frame_index, Cycles now);

    /** Statistics accumulated so far. */
    const RmBankStats &stats() const { return stats_; }

    /** Reliability accumulator (mutable: simulator adds time). */
    MttfAccumulator &reliability() { return stats_.reliability; }

    /** The planner (bench introspection). */
    const ShiftPlanner &planner() const { return planner_; }

    /** Scheme in effect. */
    Scheme scheme() const { return config_.scheme; }

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

    /** The placement policy in effect (introspection/benches). */
    const PlacementPolicy &placement() const { return *placement_; }

    /** Protection domain governing `frame` (resolved policy). */
    const ProtectionDomain &domainFor(uint64_t frame) const
    {
        return protection_.domainFor(frame);
    }

    /** The resolved protection table (introspection/benches). */
    const ResolvedProtection &protection() const
    {
        return protection_;
    }

    /**
     * Per-frame access counts accumulated by a tracking placement
     * policy (empty otherwise). A profiling pass sets
     * PlacementConfig::track_counts and feeds these back as the
     * offline hot-center profile of a second run.
     */
    const std::vector<uint64_t> &frameAccessCounts() const
    {
        return placement_->frameCounts();
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

    /**
     * Rebuild the shift-plan memo from the current planner/scheme
     * state. The memo depends on configuration only — head moves,
     * migrations and group retirement leave it valid — and the
     * configuration is immutable today, so construction calls this
     * once.
     */
    void invalidatePlanMemo();

    /** Whether steady-state accesses are served from the memo. */
    bool planMemoEnabled() const { return memo_enabled_; }

  private:
    /**
     * Precomputed cost of one memoised shift decomposition: the
     * per-part latency/energy/step fold and the exponentiated
     * reliability decomposition of the full sequence, so a
     * steady-state access is a table lookup plus accumulator adds.
     * `min_interval` is the interval-bucket lower bound (0 for the
     * non-adaptive policies, the Pareto plan's threshold for the
     * adaptive one); entries are ordered exactly as
     * ShiftPlanner::planFor scans them.
     */
    struct PlanCost
    {
        Cycles min_interval = 0;
        Cycles latency = 0;
        Joules energy = 0.0;
        int total_steps = 0;
        int sub_shifts = 0;
        double sdc_prob = 0.0; //!< exp(sequence log_sdc)
        double due_prob = 0.0; //!< exp(sequence log_due)
        /** Per-extra-domain fold (index i-1 holds domain i); empty
         *  under the default single-domain policy, so the hot path
         *  pays nothing for the feature it does not use. */
        std::vector<double> extra_sdc;
        std::vector<double> extra_due;
    };
    RmBankConfig config_;
    const PositionErrorModel *model_;
    TechParams tech_;
    StsTiming timing_;
    ShiftPlanner planner_;
    /** Resolved protection table; domain 0 is the base domain. */
    ResolvedProtection protection_;
    /** Domain 0's reliability model (the base/llc domain). */
    ReliabilityModel reliability_model_;
    /** Models for domains 1..N-1 (empty under the default policy). */
    std::vector<ReliabilityModel> extra_models_;
    ShiftPolicy policy_;
    int worst_case_distance_;

    /** Frame -> slot mapping + head-rest scheduling. */
    std::unique_ptr<PlacementPolicy> placement_;
    /** Reused buffer for migrations emitted by recordAccess. */
    std::vector<PlacementMigration> migration_scratch_;

    /** Per-group head offset (believed == actual for timing). */
    std::vector<int8_t> head_;
    /** Per-group cycle until which the group is still shifting
     *  (contention modelling). */
    std::vector<Cycles> busy_until_;
    /** Cycle of each group's previous access (idle-drift policy). */
    std::vector<Cycles> last_access_;
    /** Cycle of the previous shift operation anywhere in the bank.
     *  The paper's adapter (Sec. 5.3) tracks one memory-wide
     *  interval: "the interval between it and the last shift
     *  operation"; a single counter and table is also what keeps the
     *  hardware cost trivial. */
    Cycles last_shift_;

    /** Memo tables: plan_memo_[d - 1] = entries for distance d. */
    std::vector<std::vector<PlanCost>> plan_memo_;
    /** drift_memo_[d] = reliability of d single-step drift shifts. */
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

    /** Division by frames_per_group (frame -> home group). */
    Divider group_div_;
    /** codeword_div_[d]: division by domain d's codeword_frames. */
    std::vector<Divider> codeword_div_;

    uint64_t groupOf(uint64_t frame) const
    {
        return group_div_.quotient(frame);
    }

    /** Reliability model of protection domain `dom`. */
    const ReliabilityModel &domainModel(int dom) const
    {
        return dom == 0 ? reliability_model_
                        : extra_models_[static_cast<size_t>(dom - 1)];
    }

    /** Fold one memoised decomposition into the reliability ledger
     *  under domain `dom`'s model. */
    void addMemoReliability(const PlanCost &pc, int dom);

    /** Apply the idle head-drift policy before serving at `now`. */
    void applyHeadPolicy(uint64_t group, Cycles now);

    /**
     * Charge one scheduled frame move to the ledger: |to - from|
     * single-step shifts (the gentle drive, off the access path) on
     * the group that physically holds the frame, with energy and
     * reliability accounted like idle drift.
     */
    void chargeMigration(const PlacementMigration &m);

    /** Recompute serving_memo_ after a retirement. */
    void rebuildServingMemo();
};

} // namespace rtm

#endif // RTM_MEM_RM_BANK_HH
