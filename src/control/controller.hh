/**
 * @file
 * Position-error-aware shift controller (paper Sec. 5, Fig. 9).
 *
 * The controller binds a protected stripe to a shift policy: access
 * requests name a segment-local index; the controller computes the
 * required offset delta, asks the adapter for a safe sequence, issues
 * the protected shifts, and accounts latency, energy, and reliability
 * events. It is the functional top of the paper's contribution and
 * the unit the examples and fault-injection tests drive.
 */

#ifndef RTM_CONTROL_CONTROLLER_HH
#define RTM_CONTROL_CONTROLLER_HH

#include <cstdint>
#include <memory>
#include <string>

#include "codec/protected_stripe.hh"
#include "control/adapter.hh"
#include "control/planner.hh"
#include "control/sts.hh"
#include "util/fields.hh"
#include "util/stats.hh"
#include "util/telemetry.hh"

namespace rtm
{

/**
 * Recovery escalation ladder configuration.
 *
 * When a shift episode exhausts the stripe's in-line correction
 * rounds (what used to be an immediate DUE), the controller climbs a
 * bounded ladder before giving up:
 *
 *   1. verify-and-retry: re-decode the window and re-run the
 *      counter-shift loop, up to `retry_budget` times;
 *   2. STS stage-2 realign: a sub-threshold pulse walks any wall out
 *      of the flat region, then verify-and-retry once more;
 *   3. full scrub: rebuild code domains and refill data (modelled as
 *      an invalidate-and-refetch; always restores alignment);
 *   4. declare DUE.
 *
 * Every rung is bounded, so an access can never hang, and every rung
 * charges latency into `ControllerStats::recovery_cycles`. The
 * default (`retry_budget == 0`) preserves the legacy behaviour:
 * correction failure is reported as a DUE immediately.
 */
struct RecoveryConfig
{
    int retry_budget = 0;     //!< rung-1 attempts (0 = ladder off)
    bool sts_realign = true;  //!< enable the stage-2 realign rung
    bool allow_scrub = true;  //!< enable the scrub rung
    int max_replans = 2;      //!< cautious re-seeks after recovery
    Cycles scrub_cycles = 1024; //!< charged per full scrub (refill)

    bool operator==(const RecoveryConfig &) const = default;
};

/** Spec keys of the ladder (util/fields.hh). */
template <class V, FieldsOf<RecoveryConfig>... S>
void
forEachField(V &&v, S &...s)
{
    v("retry_budget", s.retry_budget...);
    v("sts_realign", s.sts_realign...);
    v("allow_scrub", s.allow_scrub...);
    v("max_replans", s.max_replans...);
    v("scrub_cycles", s.scrub_cycles...);
}

/** Per-controller statistics. */
struct ControllerStats
{
    uint64_t accesses = 0;        //!< read/write requests served
    uint64_t shift_ops = 0;       //!< shift operations issued
    uint64_t shift_steps = 0;     //!< total steps moved (energy)
    uint64_t detected_errors = 0; //!< p-ECC detections
    uint64_t corrected_errors = 0;
    uint64_t unrecoverable = 0;   //!< DUE events observed
    uint64_t silent_errors = 0;   //!< ground-truth SDC events
    Cycles busy_cycles = 0;       //!< cycles spent shifting/checking
    IntTally distance_histogram;  //!< sub-shift distances issued

    // Recovery-ladder decomposition: every detected episode ends in
    // exactly one of corrected_errors (in-line counter-shift),
    // recovered_retry / recovered_realign / recovered_scrub (ladder
    // rungs), or unrecoverable (ladder exhausted or disabled).
    uint64_t retry_attempts = 0;    //!< rung-1 verify-and-retry runs
    uint64_t sts_realigns = 0;      //!< rung-2 stage-2 pulses
    uint64_t scrubs = 0;            //!< rung-3 full scrubs
    uint64_t recovered_retry = 0;   //!< episodes ended by rung 1
    uint64_t recovered_realign = 0; //!< episodes ended by rung 2
    uint64_t recovered_scrub = 0;   //!< episodes ended by rung 3
    Cycles recovery_cycles = 0;     //!< cycles spent on the ladder

    // Two-tier read discipline (PeccConfig::two_tier): every checked
    // shift runs the cheap EDC phase probe; a clean probe ends the
    // check (edc_passes), a flagged one escalates to the full decode
    // plus — for pooled codewords — the redundancy fetch
    // (full_decodes). Per-tier cycles decompose the discipline's
    // cost: edc_cycles attributes the probe time already folded into
    // the shift timing, decode_cycles is the extra escalation
    // latency charged on top.
    uint64_t edc_checks = 0;   //!< tier-1 probes issued
    uint64_t edc_passes = 0;   //!< shifts cleared by the probe alone
    uint64_t full_decodes = 0; //!< escalations to the full decode
    Cycles edc_cycles = 0;     //!< attributed tier-1 probe cycles
    Cycles decode_cycles = 0;  //!< extra tier-2 escalation cycles

    /** Per-field sum (campaign aggregation). */
    void merge(const ControllerStats &other);

    bool operator==(const ControllerStats &) const = default;
};

/**
 * Checkpointed fields (util/fields.hh), also the per-field merge. The
 * two-tier counters are written only when non-zero, so journaled
 * campaign cells (which never read two-tier) keep their bytes.
 */
template <class V, FieldsOf<ControllerStats>... S>
void
forEachField(V &&v, S &...s)
{
    v("accesses", s.accesses...);
    v("shift_ops", s.shift_ops...);
    v("shift_steps", s.shift_steps...);
    v("detected_errors", s.detected_errors...);
    v("corrected_errors", s.corrected_errors...);
    v("unrecoverable", s.unrecoverable...);
    v("silent_errors", s.silent_errors...);
    v("busy_cycles", s.busy_cycles...);
    v("distance_histogram", s.distance_histogram...);
    v("retry_attempts", s.retry_attempts...);
    v("sts_realigns", s.sts_realigns...);
    v("scrubs", s.scrubs...);
    v("recovered_retry", s.recovered_retry...);
    v("recovered_realign", s.recovered_realign...);
    v("recovered_scrub", s.recovered_scrub...);
    v("recovery_cycles", s.recovery_cycles...);
    if (v.emitWhen((s.edc_checks > 0 || s.edc_passes > 0 ||
                    s.full_decodes > 0 || s.edc_cycles > 0 ||
                    s.decode_cycles > 0)...)) {
        v("edc_checks", s.edc_checks...);
        v("edc_passes", s.edc_passes...);
        v("full_decodes", s.full_decodes...);
        v("edc_cycles", s.edc_cycles...);
        v("decode_cycles", s.decode_cycles...);
    }
}

/**
 * Ledger invariant check: every detection is accounted to exactly
 * one outcome bucket. Returns an empty string when consistent, else
 * a description of the violated invariant. The campaign runner calls
 * this after every cell; debug builds also assert it inline.
 */
std::string controllerLedgerViolation(const ControllerStats &stats);

/** Result of one access through the controller. */
struct AccessResult
{
    Bit value = Bit::X;        //!< bit read (reads only)
    Cycles latency = 0;        //!< cycles this access took
    bool due = false;          //!< unrecoverable position error
    bool position_ok = true;   //!< ground truth: aligned correctly
};

/**
 * Shift controller for one stripe.
 */
class ShiftController
{
  public:
    /**
     * @param config  protection configuration of the stripe
     * @param model   error model used for fault injection
     * @param policy  shift policy flavour
     * @param peak_ops_per_second peak intensity for WorstCase policy
     * @param rng     controller-local RNG stream
     * @param mttf_target_s reliability budget for the planner
     * @param recovery escalation-ladder configuration (default:
     *                 ladder off, legacy immediate-DUE behaviour)
     * @param telemetry observability sink (default: disabled).
     *                 Detection and recovery-ladder events are
     *                 traced; results are bit-identical either way.
     */
    ShiftController(const PeccConfig &config,
                    const PositionErrorModel *model,
                    ShiftPolicy policy, double peak_ops_per_second,
                    Rng rng,
                    double mttf_target_s = kDefaultSafeMttfSeconds,
                    RecoveryConfig recovery = RecoveryConfig{},
                    TelemetryScope telemetry = {});

    /** Initialise code and data (ideal chip-test path). */
    void initialize();

    /**
     * Read the bit at segment-local index r of `segment` at absolute
     * time `now_cycles` (drives shifts as needed).
     */
    AccessResult read(int segment, int index, Cycles now_cycles);

    /** Write the bit at segment-local index r of `segment`. */
    AccessResult write(int segment, int index, Bit value,
                       Cycles now_cycles);

    /** Statistics accumulated so far. */
    const ControllerStats &stats() const { return stats_; }

    /** The wrapped stripe (inspection). */
    ProtectedStripe &stripe() { return stripe_; }
    const ProtectedStripe &stripe() const { return stripe_; }

  private:
    ProtectedStripe stripe_;
    StsTiming timing_;
    ShiftPlanner planner_;
    ShiftAdapter adapter_;
    RecoveryConfig recovery_;
    ControllerStats stats_;

    // Per-shift constants resolved at construction.
    /** Every access is a del/ins streaming readout, not a seek. */
    bool del_ins_;
    /** Two-tier reads on a window-checked stripe: every checked
     *  shift is an EDC probe. */
    bool two_tier_;
    /** Cycles of one in-line counter-shift. */
    Cycles correction_cycles_;
    /** Extra cycles of a tier-2 escalation. */
    Cycles tier2_cycles_;

    /** DelIns: decoded data image of the last readout (buffer
     *  reused across accesses). */
    std::vector<Bit> image_;

    /** Telemetry sink (null = disabled) and the timestamp of the
     *  in-flight seek, stamped on ladder events. */
    Telemetry *t_ = nullptr;
    Cycles t_now_ = 0;

    /** Move to the offset serving (segment-local) index r. */
    AccessResult seek(int index, Cycles now_cycles);

    /**
     * DelIns-variant access path: every read/write is a protected
     * streaming readout (decode + realign) instead of a seek, since
     * the deletion/insertion code checks position wholesale per
     * readout rather than per shift. `write_value == nullptr` for
     * reads. A write re-encodes the touched track's check bits
     * before write-back, so a write landing on a check position is
     * absorbed by that maintenance re-encode.
     */
    AccessResult delInsAccess(int segment, int index,
                              const Bit *write_value,
                              Cycles now_cycles);

    /**
     * Execute one planned sub-shift; returns false when the episode
     * ended unrecoverable at the stripe level (ladder not yet run).
     */
    bool executePart(int direction, int part, AccessResult &res);

    /** Ladder rung that ended a recovery episode. */
    enum class RecoveryRung
    {
        None,    //!< ladder failed (or disabled)
        Retry,   //!< rung 1: verify-and-retry
        Realign, //!< rung 2: STS stage-2 + verify
        Scrub    //!< rung 3: full scrub
    };

    /**
     * Climb the escalation ladder after a failed episode. Returns
     * the rung that restored a verified position (None on failure)
     * and accounts it into the matching recovered_* bucket.
     */
    RecoveryRung attemptRecovery(AccessResult &res);

    /**
     * Run `episode(attempt)` (attempt 0, then once more after each
     * recovery) until it returns true, climbing the escalation
     * ladder whenever it returns false (unrecoverable at the stripe
     * level). A failed ladder, or more than max_replans recoveries,
     * ends the access as a DUE through reclassifyAsDue. Returns
     * false on a DUE, with res.due and res.position_ok set.
     */
    template <class Episode>
    bool runEpisodes(Episode &&episode, AccessResult &res);

    /** Count a DUE that ended an episode recovered by `rung`, undoing
     *  that rung's recovered_* accounting (None: the ladder failed,
     *  nothing to undo). */
    void reclassifyAsDue(RecoveryRung rung);

    /** Charge `cycles` to the access, busy, and recovery ledgers. */
    void chargeRecovery(Cycles cycles, AccessResult &res);
};

} // namespace rtm

#endif // RTM_CONTROL_CONTROLLER_HH
