/**
 * @file
 * Functional protected stripe: a RacetrackStripe plus p-ECC mechanism.
 *
 * This class provides the *mechanism* of position-error protection:
 * initialising code domains, shifting, reading the code window,
 * decoding against the believed offset, and issuing counter-shifts.
 * Policy (when to check, safe-distance limits, shift sequencing) lives
 * in the control layer; architecture statistics live in the model and
 * sim layers.
 *
 * The class tracks the controller's *believed* cumulative offset and
 * never peeks at the stripe's ground truth. Tests compare the two to
 * validate detection/correction claims.
 */

#ifndef RTM_CODEC_PROTECTED_STRIPE_HH
#define RTM_CODEC_PROTECTED_STRIPE_HH

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <vector>

#include "codec/cyclic.hh"
#include "codec/del_ins.hh"
#include "codec/layout.hh"
#include "device/error_model.hh"
#include "device/stripe.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace rtm
{

/** Result of a protected shift operation (shift + check [+ correct]). */
struct ProtectedShiftResult
{
    bool detected = false;       //!< p-ECC flagged a position error
    bool corrected = false;      //!< a counter-shift restored position
    bool unrecoverable = false;  //!< detected but uncorrectable (DUE)
    int correction_shifts = 0;   //!< counter-shift operations issued
    int inferred_error = 0;      //!< signed error the decoder inferred
};

/**
 * A racetrack stripe wrapped with its p-ECC mechanism.
 */
class ProtectedStripe
{
  public:
    /**
     * @param config protection configuration
     * @param model  position-error model for fault injection
     * @param rng    stripe-local RNG stream
     */
    ProtectedStripe(const PeccConfig &config,
                    const PositionErrorModel *model, Rng rng);

    /** Resolved geometry. */
    const PeccLayout &layout() const { return layout_; }

    /** Protection configuration. */
    const PeccConfig &config() const { return layout_.config; }

    /**
     * Program code domains and clear data to zero, bypassing the
     * faulty write path (chip-tester style initialisation).
     */
    void initializeIdeal();

    /** Believed cumulative offset (steps right of home). */
    int believedOffset() const { return believed_offset_; }

    /** Ground-truth position error (true - believed); tests only. */
    int positionError() const
    {
        return stripe_.trueOffset() - believed_offset_;
    }

    /**
     * Shift by a signed distance with STS and p-ECC checking.
     * For the Standard variant |distance| may be up to Lseg-1; the
     * OverheadRegion variant decomposes multi-step requests into
     * 1-step shift-and-write operations internally.
     *
     * Detected correctable errors are fixed by counter-shifts (each
     * itself checked); detected uncorrectable errors leave the stripe
     * in an unknown position and set `unrecoverable`.
     *
     * @param max_correction_rounds retries before declaring failure
     */
    ProtectedShiftResult shiftBy(
        int distance, int max_correction_rounds = kMaxCorrectionRounds)
    {
        ProtectedShiftResult res;
        if (distance == 0)
            return res;
        const PeccConfig &c = layout_.config;
        if (c.variant == PeccVariant::OverheadRegion) {
            // Step-by-step shift-and-write; check after every step
            // the trailing window (the one the tape moves away from):
            // right window for right shifts, left for left.
            const int dir = distance > 0 ? 1 : -1;
            const bool left = dir < 0;
            for (int i = 0; i < std::abs(distance); ++i) {
                shiftAndWriteStep(dir);
                const DecodeResult d = decodeWindow(left);
                if (d.ok())
                    continue;
                // An exhausted episode is forgiven once an earlier
                // step of this shift converged.
                if (!correctionEpisode(d, left, max_correction_rounds,
                                       true, res) &&
                    (res.unrecoverable || !res.corrected)) {
                    res.unrecoverable = true;
                    return res;
                }
            }
            return res;
        }

        // Baseline / Standard variant: one shift operation, then (for
        // Standard) the window check. The code-less baseline has no
        // check; the del/ins variant checks position wholesale at
        // readout time instead of per shift.
        if (std::abs(distance) > c.maxShiftDistance())
            rtm_panic("shift distance %d exceeds stripe maximum %d",
                      distance, c.maxShiftDistance());
        stripe_.shift(distance);
        believed_offset_ += distance;
        if (c.variant != PeccVariant::Standard)
            return res;
        const DecodeResult d = decodeWindow(false);
        if (!d.ok() &&
            !correctionEpisode(d, false, max_correction_rounds, false,
                               res))
            res.unrecoverable = true;
        return res;
    }

    /**
     * Move to the offset that aligns segment-local index r under the
     * data ports (convenience wrapper over shiftBy).
     */
    ProtectedShiftResult seekIndex(int r);

    /** Read the data bit of `segment` currently under its port. */
    Bit readAligned(int segment) const
    {
        return stripe_.read(layout_.dataPortIndex(segment));
    }

    /** Write the data bit of `segment` currently under its port. */
    bool writeAligned(int segment, Bit value)
    {
        return stripe_.write(layout_.dataPortIndex(segment), value);
    }

    /**
     * Code phase read through the right (or, for p-ECC-O, the left)
     * window ports; -1 when any lane is not a defined 0/1 domain.
     * Equal to code().phaseOf() of the bits those ports read, taken
     * in one packed load of the window's lanes.
     */
    int readWindowPhase(bool left_window) const
    {
        const Window &win = windows_[left_window ? 1 : 0];
        if (win.width == 0)
            rtm_panic("this layout has no %s window",
                      left_window ? "left" : "right");
        const uint64_t lanes =
            stripe_.windowLanes(win.first_slot, win.width);
        // 0 and 1 leave a lane's high bit clear; X (and any other
        // raw lane value) sets it and makes the window unreadable.
        if (lanes & RacetrackStripe::kAllX)
            return -1;
        // Pack first-port-most-significant, exactly as phaseOf does.
        uint32_t value = 0;
        for (int i = 0; i < win.width; ++i)
            value = (value << 1) |
                    static_cast<uint32_t>((lanes >> (2 * i)) & 1);
        return code_.phaseOfValue(value);
    }

    /**
     * Run a p-ECC check without shifting (re-synchronisation probe).
     */
    DecodeResult checkNow() const;

    /**
     * Cheap EDC probe of the active window: true iff the observed
     * code phase matches the one expected at the believed offset.
     * Detection-identical to a full decode — decodeWindow flags an
     * error exactly when the phase mismatches — the probe just skips
     * the error-inference/correction logic, so a two-tier read can
     * trust a clean probe without fetching redundancy. Vacuously
     * clean for code-less variants (None, DelIns).
     */
    bool edcClean() const;

    /**
     * Verify-and-correct without a preceding shift: decode the active
     * window and, if an error is detected, run the bounded
     * counter-shift loop. Used by the controller's recovery ladder to
     * retry a failed episode (possibly after an STS stage-2 realign
     * has converted a stop-in-middle state into a pinned one).
     *
     * Returns detected=false when the stripe already verifies clean.
     */
    ProtectedShiftResult recoverNow(
        int max_correction_rounds = kMaxCorrectionRounds);

    /**
     * DelIns variant only: run one protected streaming readout —
     * shift the whole stripe under the data ports, decode the
     * deletion/insertion code, counter-shift home compensating the
     * inferred net offset, and (optionally) return the decoded
     * payload into `payload_out`, reusing its storage. Undecodable
     * readouts are retried up to `max_correction_rounds` before
     * reporting unrecoverable.
     */
    ProtectedShiftResult readoutNow(
        std::vector<Bit> *payload_out,
        int max_correction_rounds = kMaxCorrectionRounds);

    /**
     * DelIns variant only: the track codewords the last readoutNow
     * decoded. Valid only when that readout did not end
     * unrecoverable.
     */
    const std::vector<std::vector<Bit>> &decodedTracks() const
    {
        return readout_decode_.tracks;
    }

    /**
     * DelIns variant only: encode a payload (delInsCode()->
     * payloadBits() bits) and load the resulting track codewords
     * (poke path, no faults — the modelled maintenance write).
     */
    void loadPayload(const std::vector<Bit> &payload);

    /** Direct access to the underlying stripe (tests/benches). */
    RacetrackStripe &stripe() { return stripe_; }
    const RacetrackStripe &stripe() const { return stripe_; }

    /** Cyclic code in use. */
    const CyclicCode &code() const { return code_; }

    /** Del/ins codec in use (nullptr unless the DelIns variant). */
    const DelInsCode *delInsCode() const
    {
        return delins_ ? &*delins_ : nullptr;
    }

    /** Count of shift operations issued (incl. corrections). */
    uint64_t shiftOps() const { return stripe_.shiftOps(); }

    /** Load a full data image (poke path, no faults). */
    void loadData(const std::vector<Bit> &data);

    /** Dump the full data image via ground truth (tests only). */
    std::vector<Bit> dumpData() const;

  private:
    /** A code window resolved at construction: its ports are
     *  consecutive, so its lanes are one packed read. */
    struct Window
    {
        int first_slot = 0; //!< wire slot of the first port
        int width = 0;      //!< ports; 0 when the layout has none
        int phase_base = 0; //!< phase it reads at believed offset 0
    };

    PeccLayout layout_;
    CyclicCode code_;
    std::optional<DelInsCode> delins_;
    RacetrackStripe stripe_;
    int believed_offset_ = 0;
    /** windows_[0]: the right window; windows_[1]: p-ECC-O's left. */
    Window windows_[2];

    /** DelIns readout buffers, reused across rounds and readouts:
     *  the observed streams, the decode result and the decoder's
     *  second candidate. */
    std::vector<std::vector<Bit>> readout_streams_;
    DelInsCode::Result readout_decode_;
    std::vector<std::vector<Bit>> readout_scratch_;

    /** Phase the window should read at the believed offset. */
    int expectedWindowPhase(bool left_window) const
    {
        return (windows_[left_window ? 1 : 0].phase_base -
                believed_offset_) &
               (code_.period() - 1);
    }

    /**
     * Decode the active window for the current believed offset. A
     * window reading its expected phase is clean without running
     * CyclicCode::decode, which returns exactly that for a zero
     * residue.
     */
    DecodeResult decodeWindow(bool left_window) const
    {
        const int observed = readWindowPhase(left_window);
        const int expected = expectedWindowPhase(left_window);
        if (observed == expected) {
            DecodeResult clean;
            clean.valid = true;
            return clean;
        }
        return code_.decode(observed, expected,
                            layout_.config.correct);
    }

    /** One raw shift step for the OverheadRegion variant. */
    void shiftAndWriteStep(int direction);

    /**
     * The correction episode after a check flagged `d`: counter-shift
     * by the inferred error and re-check `left_window`, at most
     * `max_rounds` times. Marks `res` detected, then corrected (true)
     * or unrecoverable (false; an exhausted episode returns false
     * with neither mark, for the caller to judge). `count_steps`
     * charges a counter-shift by its length; the Standard in-line
     * path charges one per operation.
     *
     * Counter-shifts are raw (the p-ECC-O end write ports stay idle:
     * writing while the position is in doubt would plant code bits
     * keyed to a possibly-wrong believed offset). p-ECC-O's margins
     * absorb the undefined domains each one injects, so the window
     * re-check stays trustworthy, and one verified scrub repairs the
     * margins after convergence.
     */
    bool correctionEpisode(DecodeResult d, bool left_window,
                           int max_rounds, bool count_steps,
                           ProtectedShiftResult &res);

    /** Re-program end-code domains after a correction (p-ECC-O). */
    void repairEndCode();

    /** Wire slot of data[j] if it is on the wire at believed offset. */
    std::optional<int> dataSlot(int j) const;
};

} // namespace rtm

#endif // RTM_CODEC_PROTECTED_STRIPE_HH
