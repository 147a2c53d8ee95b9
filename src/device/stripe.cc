#include "stripe.hh"

#include <algorithm>

#include "util/logging.hh"

namespace rtm
{

Bit
invert(Bit b)
{
    switch (b) {
      case Bit::Zero: return Bit::One;
      case Bit::One: return Bit::Zero;
      default: return Bit::X;
    }
}

char
bitChar(Bit b)
{
    switch (b) {
      case Bit::Zero: return '0';
      case Bit::One: return '1';
      default: return 'x';
    }
}

void
RacetrackStripe::slotSet(int slot, Bit value)
{
    uint64_t &w = words_[static_cast<size_t>(slot / kSlotsPerWord)];
    const int sh = (slot % kSlotsPerWord) * 2;
    w = (w & ~(3ULL << sh)) |
        (static_cast<uint64_t>(value) << sh);
}

RacetrackStripe::RacetrackStripe(int wire_slots, std::vector<Port> ports,
                                 const PositionErrorModel *model,
                                 Rng rng)
    : words_(static_cast<size_t>(wire_slots + kSlotsPerWord - 1) /
                 kSlotsPerWord,
             kAllX),
      slots_(wire_slots), ports_(std::move(ports)), model_(model),
      rng_(rng)
{
    if (wire_slots <= 0)
        rtm_fatal("stripe needs at least one domain slot");
    if (const int used = wire_slots % kSlotsPerWord; used != 0) {
        tail_keep_ = (uint64_t{1} << (used * 2)) - 1;
        tail_pad_ = kAllX & ~tail_keep_;
    }
    if (!model_)
        rtm_fatal("stripe needs an error model (use ZeroErrorModel)");
    for (const auto &p : ports_) {
        if (p.wire_slot < 0 || p.wire_slot >= wire_slots) {
            rtm_fatal("port slot %d outside wire of %d slots",
                      p.wire_slot, wire_slots);
        }
    }
}

void
RacetrackStripe::poke(int slot, Bit value)
{
    if (slot < 0 || slot >= wireSlots())
        rtm_panic("poke slot %d out of range", slot);
    slotSet(slot, value);
}

Bit
RacetrackStripe::peek(int slot) const
{
    if (slot < 0 || slot >= wireSlots())
        rtm_panic("peek slot %d out of range", slot);
    return slotGet(slot);
}

void
RacetrackStripe::moveTapeFar(int k, bool right)
{
    const size_t nw = words_.size();
    const size_t ws = static_cast<size_t>(k) /
                      static_cast<size_t>(kSlotsPerWord);
    const int bs = (k % kSlotsPerWord) * 2;
    if (right) {
        // Right shift: slot i receives slot i-k; the left end gets X.
        // In packed form that is a funnel shift towards higher bit
        // positions by 2k; out-of-range source words read as all-X,
        // which injects the vacated domains for free.
        for (size_t j = nw; j-- > 0;) {
            const uint64_t lo = j >= ws ? words_[j - ws] : kAllX;
            if (bs == 0) {
                words_[j] = lo;
            } else {
                const uint64_t carry =
                    j >= ws + 1 ? words_[j - ws - 1] : kAllX;
                words_[j] = (lo << bs) | (carry >> (64 - bs));
            }
        }
    } else {
        // Left shift: slot i receives slot i+k. Sources past the end
        // of the wire read as all-X - both past the word array and
        // in the last word's pad lanes, which hold X.
        for (size_t j = 0; j < nw; ++j) {
            const uint64_t lo = j + ws < nw ? words_[j + ws] : kAllX;
            if (bs == 0) {
                words_[j] = lo;
            } else {
                const uint64_t carry =
                    j + ws + 1 < nw ? words_[j + ws + 1] : kAllX;
                words_[j] = (lo >> bs) | (carry << (64 - bs));
            }
        }
    }
}

void
RacetrackStripe::resetTracking()
{
    true_offset_ = 0;
    misaligned_ = false;
}

void
RacetrackStripe::applyStsStage2()
{
    if (!misaligned_)
        return;
    // A positive sub-threshold pulse advances walls out of the flat
    // region into the next notch: one more step of tape movement.
    moveTape(1);
    misaligned_ = false;
}

bool
RacetrackStripe::write(int port_index, Bit value)
{
    const Port &p = port(port_index);
    if (p.kind != PortKind::ReadWrite)
        rtm_panic("write through read-only port %d", port_index);
    if (misaligned_)
        return false;
    slotSet(p.wire_slot, value);
    return true;
}

ShiftOutcome
RacetrackStripe::shiftAndWrite(Bit entering, bool from_left)
{
    // Shift-and-write advances exactly one step; the entering domain
    // at the tape end is programmed by the end write port while it
    // passes, so it carries `entering` instead of X.
    ShiftOutcome out = doShift(from_left ? 1 : -1, true);
    int n = wireSlots();
    if (from_left) {
        // Entering domains occupy the left end; the *last* injected
        // one (slot actual-1 .. but after an over-shift several X
        // domains entered; the write port only programmed the final
        // one passing it, which now sits at slot (actual - 1) for
        // actual >= 1. For simplicity and pessimism we program slot
        // 0's neighbour chain: only the domain currently at the end
        // write port, i.e. slot 0 after a correct 1-step shift.
        int slot = 0;
        if (!misaligned_ && slot < n)
            slotSet(slot, entering);
    } else {
        int slot = n - 1;
        if (!misaligned_ && slot >= 0)
            slotSet(slot, entering);
    }
    return out;
}

} // namespace rtm
