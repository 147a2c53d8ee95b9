/**
 * @file
 * Functional model of one racetrack-memory stripe (nanowire).
 *
 * The wire is a fixed array of domain slots. Shifting moves every
 * domain's content along the wire: a right shift by k moves slot i's
 * value to slot i+k, injects k undefined domains at the left end, and
 * destroys the k right-most domains (data loss at the wire ends is
 * physical and is exactly what guard domains protect against).
 *
 * Position errors are injected at shift time from a PositionErrorModel:
 * the *requested* distance and the *actual* distance may differ, and a
 * stop-in-middle outcome leaves every read undefined until a
 * re-aligning operation (STS stage 2) completes.
 *
 * The stripe itself has no notion of p-ECC or segments; those live in
 * the codec and control layers, which decide where ports are placed
 * and what the believed cumulative offset is.
 *
 * Storage is packed: 2 bits per domain, 32 domains per 64-bit word,
 * so a shift moves whole words with a funnel shift instead of one
 * byte per domain. Public semantics (tri-state values, data loss at
 * the ends, X injection) are unchanged from the per-domain
 * representation.
 */

#ifndef RTM_DEVICE_STRIPE_HH
#define RTM_DEVICE_STRIPE_HH

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "device/error_model.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace rtm
{

/** Tri-state domain content: 0, 1, or undefined. */
enum class Bit : uint8_t
{
    Zero = 0,
    One = 1,
    X = 2 //!< undefined (freshly injected domain or misaligned read)
};

/** Flip a defined bit; X stays X. */
Bit invert(Bit b);

/** Convert to char for debugging ('0', '1', 'x'). */
char bitChar(Bit b);

/** Kinds of access ports along the wire (paper Fig. 2). */
enum class PortKind : uint8_t
{
    ReadOnly,  //!< sense amplifier only
    ReadWrite  //!< sense + write drivers (2 extra reference domains)
};

/** One access port attached at a fixed wire slot. */
struct Port
{
    int wire_slot = 0;
    PortKind kind = PortKind::ReadOnly;
};

/**
 * Functional stripe with fault injection.
 */
class RacetrackStripe
{
  public:
    /**
     * @param wire_slots total number of domain slots on the wire
     * @param ports      access ports (slots must be within the wire)
     * @param model      position-error model (may be ZeroErrorModel)
     * @param rng        RNG used for fault injection
     */
    RacetrackStripe(int wire_slots, std::vector<Port> ports,
                    const PositionErrorModel *model, Rng rng);

    /** Number of domain slots on the wire. */
    int wireSlots() const { return slots_; }

    /** Number of attached ports. */
    int portCount() const { return static_cast<int>(ports_.size()); }

    /** Port descriptor (for layout introspection). */
    const Port &port(int index) const
    {
        if (index < 0 || index >= portCount())
            rtm_panic("port index %d out of range", index);
        return ports_[static_cast<size_t>(index)];
    }

    /** Set a domain's content directly (initialisation only). */
    void poke(int slot, Bit value);

    /** Inspect a domain's content directly (testing only). */
    Bit peek(int slot) const;

    /**
     * Shift the tape by the requested distance with STS enabled.
     * Positive = right. A position error sampled from the model may
     * change the actual movement. Returns the injected outcome so
     * callers (tests, stats) can observe ground truth; production
     * controllers must *not* branch on it.
     */
    ShiftOutcome shift(int distance) { return doShift(distance, true); }

    /**
     * Shift without the STS stage: outcomes may be stop-in-middle.
     */
    ShiftOutcome shiftRaw(int distance)
    {
        return doShift(distance, false);
    }

    /**
     * Apply a (positive-direction) sub-threshold stage-2 pulse: a
     * stop-in-middle state resolves by advancing walls to the next
     * notch; an aligned tape is unaffected.
     */
    void applyStsStage2();

    /** Read the domain under a port (X while misaligned). */
    Bit read(int port_index) const
    {
        const Port &p = port(port_index);
        return misaligned_ ? Bit::X : slotGet(p.wire_slot);
    }

    /**
     * The `width` consecutive domains from `first_slot` upward as
     * read through ports over them, packed 2 bits each: slot
     * first_slot + i in bits [2i, 2i + 2). Every lane reads X while
     * misaligned, like read(). One or two word loads, so a code
     * window costs the same as a single port read.
     * @pre 1 <= width <= 32 and the slots lie on the wire.
     */
    uint64_t windowLanes(int first_slot, int width) const
    {
        assert(width >= 1 && width <= kSlotsPerWord);
        assert(first_slot >= 0 && first_slot + width <= slots_);
        const uint64_t mask =
            width == kSlotsPerWord ? ~uint64_t{0}
                                   : (uint64_t{1} << (2 * width)) - 1;
        if (misaligned_)
            return kAllX & mask;
        const size_t word = static_cast<size_t>(first_slot / kSlotsPerWord);
        const int sh = (first_slot % kSlotsPerWord) * 2;
        uint64_t lanes = words_[word] >> sh;
        // sh > 0 here: a window starting on a word boundary fits it.
        if (sh + 2 * width > 64)
            lanes |= words_[word + 1] << (64 - sh);
        return lanes & mask;
    }

    /**
     * Write through a read/write port. @pre the port is ReadWrite.
     * Writing while misaligned is rejected (returns false): the
     * shift-based write cannot land on a wall boundary.
     */
    bool write(int port_index, Bit value);

    /**
     * Shift right by one step and write a bit into the left-most
     * domain as it enters (the p-ECC-O "shift-and-write", which needs
     * a write port at the wire end). Subject to fault injection like
     * any other 1-step shift.
     */
    ShiftOutcome shiftAndWrite(Bit entering, bool from_left);

    /** True if the last shift left walls between notches. */
    bool misaligned() const { return misaligned_; }

    /**
     * Ground-truth cumulative offset actually applied (steps, right
     * positive). Controllers track their own believed offset; the
     * difference is the current position error.
     */
    int trueOffset() const { return true_offset_; }

    /**
     * Reset the ground-truth position bookkeeping to "home".
     * For use by initialisation paths that rebuild the physical
     * contents via poke(): after a rebuild the tape *is* at its
     * home alignment, so the stale offset/misalignment state from
     * before the rebuild must not survive it.
     */
    void resetTracking();

    /** Total shift steps actually moved (for energy accounting). */
    uint64_t stepsMoved() const { return steps_moved_; }

    /** Number of shift operations attempted. */
    uint64_t shiftOps() const { return shift_ops_; }

    /** Bit::X (value 2, binary 10) replicated into every 2-bit lane. */
    static constexpr uint64_t kAllX = 0xaaaaaaaaaaaaaaaaULL;
    static constexpr int kSlotsPerWord = 32;

  private:
    /** Packed domains: 2 bits per slot, 32 slots per word, slot i in
     *  bits [2*(i%32), 2*(i%32)+1) of words_[i/32]. Lanes past
     *  slots_ in the last word always hold Bit::X, so word-level
     *  shifts pull well-defined values across the wire ends. */
    std::vector<uint64_t> words_;
    int slots_;
    std::vector<Port> ports_;
    const PositionErrorModel *model_;
    Rng rng_;
    bool misaligned_ = false;
    int true_offset_ = 0;
    uint64_t steps_moved_ = 0;
    uint64_t shift_ops_ = 0;

    Bit slotGet(int slot) const
    {
        const uint64_t w = words_[static_cast<size_t>(slot / kSlotsPerWord)];
        const int sh = (slot % kSlotsPerWord) * 2;
        return static_cast<Bit>((w >> sh) & 3);
    }

    void slotSet(int slot, Bit value);

    /** The last word's wire lanes, and X in its pad lanes. */
    uint64_t tail_keep_ = ~uint64_t{0};
    uint64_t tail_pad_ = 0;

    /** Move tape content by the actual distance (with data loss). */
    void moveTape(int actual)
    {
        if (actual == 0)
            return;
        const int k = std::min(std::abs(actual), slots_);
        if (k < kSlotsPerWord) {
            // Shorter than a word (every shift on the drills' wires):
            // one funnel shift per word against its original
            // neighbour, with all-X beyond the ends injecting the
            // vacated domains.
            const int bs = 2 * k;
            const size_t nw = words_.size();
            if (actual > 0) {
                for (size_t j = nw - 1; j > 0; --j)
                    words_[j] = (words_[j] << bs) |
                                (words_[j - 1] >> (64 - bs));
                words_[0] = (words_[0] << bs) | (kAllX >> (64 - bs));
            } else {
                for (size_t j = 0; j + 1 < nw; ++j)
                    words_[j] = (words_[j] >> bs) |
                                (words_[j + 1] << (64 - bs));
                words_[nw - 1] =
                    (words_[nw - 1] >> bs) | (kAllX << (64 - bs));
            }
        } else {
            moveTapeFar(k, actual > 0);
        }
        // Domains shifted past the wire end are destroyed; the pad
        // lanes they crossed into go back to X.
        words_.back() = (words_.back() & tail_keep_) | tail_pad_;
        true_offset_ += actual;
        steps_moved_ += static_cast<uint64_t>(std::abs(actual));
    }

    /** Word-crossing part of moveTape, k >= 32 slots right or left;
     *  the caller restores the pad lanes and the bookkeeping. */
    void moveTapeFar(int k, bool right);

    /** The one shift path: at most one draw from the model, then
     *  the tape moves by the requested distance plus its error. */
    ShiftOutcome doShift(int distance, bool sts)
    {
        ++shift_ops_;
        if (misaligned_) {
            // Walls between notches: a fresh drive pulse re-enters
            // the notch lattice; model this as first completing the
            // pending positive half-step (as STS stage 2 would).
            applyStsStage2();
        }
        if (distance == 0)
            return ShiftOutcome{};
        const int magnitude = std::abs(distance);
        const ShiftOutcome out = model_->sample(rng_, magnitude, sts);
        // The sampled outcome is expressed in the direction of motion.
        const int moved = magnitude + out.step_error;
        moveTape(distance > 0 ? moved : -moved);
        misaligned_ = out.stop_in_middle;
        return out;
    }
};

} // namespace rtm

#endif // RTM_DEVICE_STRIPE_HH
