#include "protected_stripe.hh"

#include <cmath>

#include "util/logging.hh"

namespace rtm
{

ProtectedStripe::ProtectedStripe(const PeccConfig &config,
                                 const PositionErrorModel *model,
                                 Rng rng)
    : layout_(computeLayout(config)), code_(config.window()),
      stripe_(layout_.wire_len, layout_.buildPorts(), model,
              std::move(rng))
{
    if (config.variant == PeccVariant::DelIns)
        delins_.emplace(config.num_segments, config.seg_len,
                        config.correct);
    const int period = code_.period();
    auto resolve = [&](const std::vector<int> &slots, int phase_base) {
        Window win;
        if (slots.empty())
            return win;
        const int width = static_cast<int>(slots.size());
        if (width != code_.window())
            rtm_panic("window of %d ports for a %d-bit code", width,
                      code_.window());
        for (int i = 1; i < width; ++i) {
            if (slots[static_cast<size_t>(i)] != slots.front() + i)
                rtm_panic("window ports are not consecutive");
        }
        win.first_slot = slots.front();
        win.width = width;
        win.phase_base = phase_base;
        return win;
    };
    if (!layout_.window_slots.empty())
        windows_[0] = resolve(layout_.window_slots,
                              layout_.expectedPhase(0, period));
    if (!layout_.left_window_slots.empty())
        windows_[1] = resolve(layout_.left_window_slots,
                              layout_.expectedLeftPhase(0, period));
}

void
ProtectedStripe::initializeIdeal()
{
    const auto &c = layout_.config;
    // The rebuild below lays contents out at the home alignment;
    // any offset the tape had drifted to beforehand is gone.
    stripe_.resetTracking();
    // Data region: zeroes.
    for (int j = 0; j < c.dataDomains(); ++j)
        stripe_.poke(layout_.data_base + j, Bit::Zero);

    if (c.variant == PeccVariant::Standard) {
        for (int j = 0; j < layout_.code_len; ++j)
            stripe_.poke(layout_.code_base + j, code_.bitAt(j));
    } else if (c.variant == PeccVariant::OverheadRegion) {
        // Every non-data slot carries the global code c(slot) at the
        // home position; maintenance writes keep the invariant as the
        // tape moves.
        for (int slot = 0; slot < layout_.wire_len; ++slot) {
            if (slot >= layout_.data_base &&
                slot < layout_.data_base + c.dataDomains()) {
                continue;
            }
            stripe_.poke(slot, code_.bitAt(slot));
        }
    } else if (c.variant == PeccVariant::DelIns) {
        // The all-zero data image is a valid interleaved-VT codeword
        // (zero syndromes need zero check bits), so the data region
        // is already consistent. Everything else must be *undefined*:
        // the sentinel region's X domains are what the streaming
        // decode measures the net offset against.
        for (int slot = 0; slot < layout_.wire_len; ++slot) {
            if (slot >= layout_.data_base &&
                slot < layout_.data_base + c.dataDomains()) {
                continue;
            }
            stripe_.poke(slot, Bit::X);
        }
    }
    believed_offset_ = 0;
}

DecodeResult
ProtectedStripe::checkNow() const
{
    if (layout_.config.variant == PeccVariant::None ||
        layout_.config.variant == PeccVariant::DelIns) {
        // No passive code window to probe: None has no code at all,
        // and the del/ins code only checks position during a readout
        // (readoutNow), which shifts. Report a clean (vacuous)
        // result.
        DecodeResult r;
        r.valid = true;
        return r;
    }
    return decodeWindow(false);
}

bool
ProtectedStripe::edcClean() const
{
    const auto &c = layout_.config;
    if (c.variant == PeccVariant::None ||
        c.variant == PeccVariant::DelIns)
        return true;
    return readWindowPhase(false) == expectedWindowPhase(false);
}

void
ProtectedStripe::shiftAndWriteStep(int direction)
{
    // Entering-domain code value for the post-shift believed offset.
    int o_new = believed_offset_ + direction;
    Bit entering;
    if (direction > 0) {
        // Tape moves right; a domain enters at slot 0 with tape
        // index -o_new (tape index = slot - offset).
        entering = code_.bitAt(-static_cast<int64_t>(o_new));
        stripe_.shiftAndWrite(entering, true);
    } else {
        entering = code_.bitAt(
            static_cast<int64_t>(layout_.wire_len - 1) - o_new);
        stripe_.shiftAndWrite(entering, false);
    }
    believed_offset_ = o_new;
}

void
ProtectedStripe::repairEndCode()
{
    // After a correction episode the entry margins may hold stale or
    // undefined code: maintenance writes made during the erroneous
    // movement used the (then wrong) believed offset, correction
    // shifts injected unwritten domains, and extra entering domains
    // were never programmed at all. Once the window check confirms
    // the tape is back in place, the controller scrubs the margins
    // with the end write ports (a short burst of shuttle
    // shift-and-write passes in hardware; corrections are ~1e-4
    // rare, so the cost is negligible). The scrub deliberately never
    // touches window slots: window bits must stay evidence written
    // *before* the operation under check, otherwise a failed
    // correction could overwrite the proof of its own failure - and
    // it only runs after convergence, because scrubbing with a wrong
    // believed offset would plant corruption instead of removing it.
    int scrub = kOverheadScrubDepthFactor *
                (layout_.config.correct + 1);
    for (int slot = 0; slot < std::min(scrub, layout_.wire_len);
         ++slot) {
        stripe_.poke(slot,
                     code_.bitAt(static_cast<int64_t>(slot) -
                                 believed_offset_));
    }
    for (int slot = std::max(0, layout_.wire_len - scrub);
         slot < layout_.wire_len; ++slot) {
        stripe_.poke(slot,
                     code_.bitAt(static_cast<int64_t>(slot) -
                                 believed_offset_));
    }
}

bool
ProtectedStripe::correctionEpisode(DecodeResult d, bool left_window,
                                   int max_rounds, bool count_steps,
                                   ProtectedShiftResult &res)
{
    res.detected = true;
    res.inferred_error = d.step_error;
    if (!d.correctable) {
        res.unrecoverable = true;
        return false;
    }
    int rounds = 0;
    while (rounds++ < max_rounds) {
        const int corr = -d.step_error;
        stripe_.shift(corr);
        res.correction_shifts += count_steps ? std::abs(corr) : 1;
        d = decodeWindow(left_window);
        if (d.ok()) {
            res.corrected = true;
            if (layout_.config.variant == PeccVariant::OverheadRegion)
                repairEndCode();
            return true;
        }
        if (!d.correctable) {
            res.unrecoverable = true;
            return false;
        }
    }
    return false;
}

ProtectedShiftResult
ProtectedStripe::recoverNow(int max_correction_rounds)
{
    ProtectedShiftResult res;
    const auto &c = layout_.config;
    if (c.variant == PeccVariant::None)
        return res; // no code to verify against
    if (c.variant == PeccVariant::DelIns) {
        // Position verification *is* a decoded readout: it measures
        // the net offset from the sentinel run and counter-shifts
        // home, which is exactly what the recovery ladder wants.
        return readoutNow(nullptr, max_correction_rounds);
    }
    const DecodeResult d = decodeWindow(false);
    if (!d.ok() &&
        !correctionEpisode(d, false, max_correction_rounds, true, res))
        res.unrecoverable = true;
    return res;
}

ProtectedShiftResult
ProtectedStripe::readoutNow(std::vector<Bit> *payload_out,
                            int max_correction_rounds)
{
    ProtectedShiftResult res;
    if (!delins_)
        rtm_panic("readoutNow requires the DelIns variant");
    const DelInsCode &code = *delins_;
    const int n = code.readoutReads();
    const int tracks = layout_.config.num_segments;

    int rounds = 0;
    while (rounds++ < std::max(1, max_correction_rounds)) {
        // Start from the believed home position. The seek itself is
        // unchecked: any error it suffers is a latent offset the
        // decode absorbs as a burst at read index 0.
        if (believed_offset_ != 0) {
            stripe_.shift(-believed_offset_);
            believed_offset_ = 0;
        }
        // Every (track, read) cell is written below, so the reused
        // buffers only need the right shape.
        std::vector<std::vector<Bit>> &streams = readout_streams_;
        streams.resize(static_cast<size_t>(tracks));
        for (auto &stream : streams)
            stream.resize(static_cast<size_t>(n));
        for (int t = 0; t < n; ++t) {
            if (t > 0) {
                stripe_.shift(1);
                ++believed_offset_;
            }
            for (int s = 0; s < tracks; ++s)
                streams[static_cast<size_t>(s)]
                       [static_cast<size_t>(t)] =
                    stripe_.read(layout_.dataPortIndex(s));
        }
        DelInsCode::Result &dec = readout_decode_;
        code.decode(streams, &dec, &readout_scratch_);
        if (dec.status.ok() || dec.status.correctable) {
            // Return home compensating the inferred net offset; the
            // believed offset re-synchronises to the decoded ground
            // truth. (The return shift is itself fallible - a new
            // latent offset for the *next* readout to absorb.)
            const int delta = dec.status.step_error;
            stripe_.shift(-(believed_offset_ + delta));
            believed_offset_ = 0;
            if (delta != 0) {
                res.detected = true;
                res.corrected = true;
                res.inferred_error = delta;
                res.correction_shifts += std::abs(delta);
            }
            if (payload_out)
                code.extractPayload(dec.tracks, payload_out);
            return res;
        }
        // Undecodable round (beyond-radius offset, conflicting or no
        // surviving reconstruction): head home best-effort and retry.
        res.detected = true;
        stripe_.shift(-believed_offset_);
        believed_offset_ = 0;
    }
    res.unrecoverable = true;
    return res;
}

void
ProtectedStripe::loadPayload(const std::vector<Bit> &payload)
{
    if (!delins_)
        rtm_panic("loadPayload requires the DelIns variant");
    auto tracks = delins_->encode(payload);
    std::vector<Bit> flat;
    flat.reserve(static_cast<size_t>(layout_.config.dataDomains()));
    for (const auto &track : tracks)
        flat.insert(flat.end(), track.begin(), track.end());
    loadData(flat);
}

ProtectedShiftResult
ProtectedStripe::seekIndex(int r)
{
    int target = layout_.offsetForIndex(r);
    return shiftBy(target - believed_offset_);
}

std::optional<int>
ProtectedStripe::dataSlot(int j) const
{
    int slot = layout_.data_base + j + stripe_.trueOffset();
    if (slot < 0 || slot >= layout_.wire_len)
        return std::nullopt;
    return slot;
}

void
ProtectedStripe::loadData(const std::vector<Bit> &data)
{
    const auto &c = layout_.config;
    if (static_cast<int>(data.size()) != c.dataDomains())
        rtm_fatal("loadData size %zu != %d data domains", data.size(),
                  c.dataDomains());
    for (int j = 0; j < c.dataDomains(); ++j) {
        auto slot = dataSlot(j);
        if (!slot)
            rtm_fatal("loadData: domain %d is off the wire", j);
        stripe_.poke(*slot, data[static_cast<size_t>(j)]);
    }
}

std::vector<Bit>
ProtectedStripe::dumpData() const
{
    const auto &c = layout_.config;
    std::vector<Bit> out;
    out.reserve(static_cast<size_t>(c.dataDomains()));
    for (int j = 0; j < c.dataDomains(); ++j) {
        auto slot = dataSlot(j);
        out.push_back(slot ? stripe_.peek(*slot) : Bit::X);
    }
    return out;
}

} // namespace rtm
