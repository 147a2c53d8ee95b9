#include "controller.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

#include "util/logging.hh"

namespace rtm
{

namespace
{

/** Correction logic time per counter-shift: 1.34 ns ~ 3 cycles. */
constexpr Cycles kCorrectionLogicCycles = 3;

/** Tier-1 EDC phase probe: the 0.34 ns detect slot, ~1 cycle. */
constexpr Cycles kEdcProbeCycles = 1;

} // anonymous namespace

void
ControllerStats::merge(const ControllerStats &other)
{
    forEachField(FieldSum{}, *this, other);
}

std::string
controllerLedgerViolation(const ControllerStats &stats)
{
    uint64_t accounted = stats.corrected_errors +
                         stats.recovered_retry +
                         stats.recovered_realign +
                         stats.recovered_scrub + stats.unrecoverable;
    if (stats.detected_errors != accounted) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "detected_errors (%llu) != corrected + "
                      "recovered + unrecoverable (%llu)",
                      static_cast<unsigned long long>(
                          stats.detected_errors),
                      static_cast<unsigned long long>(accounted));
        return buf;
    }
    if (stats.recovered_scrub > stats.scrubs)
        return "more scrub recoveries than scrubs";
    if (stats.recovered_realign > stats.sts_realigns)
        return "more realign recoveries than stage-2 pulses";
    if (stats.busy_cycles < stats.recovery_cycles)
        return "recovery cycles exceed busy cycles";
    if (stats.edc_passes + stats.full_decodes != stats.edc_checks)
        return "EDC probes not accounted to exactly one tier";
    return "";
}

ShiftController::ShiftController(const PeccConfig &config,
                                 const PositionErrorModel *model,
                                 ShiftPolicy policy,
                                 double peak_ops_per_second, Rng rng,
                                 double mttf_target_s,
                                 RecoveryConfig recovery,
                                 TelemetryScope telemetry)
    : stripe_(config, model, std::move(rng)),
      timing_(kDefaultClockHz, kStage1PerStepSeconds,
              kStage2PulseSeconds,
              // The in-path detect slot (Table 5) on a protected stripe.
              config.variant == PeccVariant::None ? 0.0
                                                  : kInPathCheckSeconds),
      planner_(model, timing_, config.correct,
               config.seg_len - 1, mttf_target_s),
      adapter_(&planner_,
               config.variant == PeccVariant::OverheadRegion
                   ? ShiftPolicy::StepByStep
                   : policy,
               peak_ops_per_second),
      recovery_(recovery),
      del_ins_(config.variant == PeccVariant::DelIns),
      two_tier_(config.two_tier &&
                (config.variant == PeccVariant::Standard ||
                 config.variant == PeccVariant::OverheadRegion)),
      // Corrections are short counter-shifts; each costs the 1-step
      // shift plus the paper's correction logic time.
      correction_cycles_(timing_.shiftCycles(1) +
                         kCorrectionLogicCycles),
      // A flagged two-tier check pays the full decode and, when
      // frames pool their check bits, the redundancy fetch from the
      // codeword's base frame.
      tier2_cycles_(kCorrectionLogicCycles +
                    (config.codeword_frames > 1 ? timing_.shiftCycles(1)
                                                : 0)),
      t_(telemetry.get())
{
}

void
ShiftController::initialize()
{
    stripe_.initializeIdeal();
}

void
ShiftController::chargeRecovery(Cycles cycles, AccessResult &res)
{
    stats_.busy_cycles += cycles;
    stats_.recovery_cycles += cycles;
    res.latency += cycles;
}

bool
ShiftController::executePart(int direction, int part,
                             AccessResult &res)
{
    ProtectedShiftResult r = stripe_.shiftBy(direction * part);
    ++stats_.shift_ops;
    stats_.shift_steps += static_cast<uint64_t>(part) +
                          static_cast<uint64_t>(r.correction_shifts);
    stats_.distance_histogram.add(part);
    Cycles lat = timing_.shiftCycles(part) +
                 static_cast<Cycles>(r.correction_shifts) *
                     correction_cycles_;
    stats_.busy_cycles += lat;
    res.latency += lat;
    if (r.detected) {
        ++stats_.detected_errors;
        if (t_)
            t_->event(EventKind::ErrorDetected, "pecc", t_now_,
                      static_cast<double>(part),
                      static_cast<double>(r.correction_shifts));
    }
    if (r.corrected)
        ++stats_.corrected_errors;

    if (two_tier_) {
        // Two-tier decomposition of the per-shift check. A clean
        // probe ends the check at the detect slot already folded
        // into the shift timing; a flagged shift escalates to the
        // full decode (tier2_cycles_) — extra latency only the
        // (rare) error path pays.
        ++stats_.edc_checks;
        if (!r.detected) {
            ++stats_.edc_passes;
            stats_.edc_cycles += kEdcProbeCycles;
        } else {
            ++stats_.full_decodes;
            stats_.decode_cycles += tier2_cycles_;
            stats_.busy_cycles += tier2_cycles_;
            res.latency += tier2_cycles_;
        }
    }
    return !r.unrecoverable;
}

ShiftController::RecoveryRung
ShiftController::attemptRecovery(AccessResult &res)
{
    if (recovery_.retry_budget <= 0)
        return RecoveryRung::None; // ladder off: legacy DUE

    // The per-probe cost: one window decode plus the counter-shifts
    // the retry issued (charged like in-line corrections).
    auto chargeProbe = [&](const ProtectedShiftResult &r) {
        Cycles lat = timing_.shiftCycles(1); // window decode slot
        if (r.correction_shifts > 0) {
            stats_.shift_ops +=
                static_cast<uint64_t>(r.correction_shifts);
            stats_.shift_steps +=
                static_cast<uint64_t>(r.correction_shifts);
            lat += static_cast<Cycles>(r.correction_shifts) *
                   correction_cycles_;
        }
        chargeRecovery(lat, res);
    };

    // Rung 1: bounded verify-and-retry.
    for (int attempt = 0; attempt < recovery_.retry_budget;
         ++attempt) {
        ++stats_.retry_attempts;
        ProtectedShiftResult r = stripe_.recoverNow();
        chargeProbe(r);
        if (!r.detected || r.corrected) {
            ++stats_.recovered_retry;
            if (t_)
                t_->event(EventKind::RecoveryRung, "retry", t_now_,
                          static_cast<double>(attempt + 1));
            return RecoveryRung::Retry;
        }
    }

    // Rung 2: STS stage-2 realign, then one more verify-and-retry.
    // A sub-threshold pulse frees walls stranded in the flat region
    // (the stop-in-middle class) without disturbing pinned walls.
    if (recovery_.sts_realign) {
        ++stats_.sts_realigns;
        stripe_.stripe().applyStsStage2();
        chargeRecovery(timing_.shiftCycles(1), res);
        ProtectedShiftResult r = stripe_.recoverNow();
        chargeProbe(r);
        if (!r.detected || r.corrected) {
            ++stats_.recovered_realign;
            if (t_)
                t_->event(EventKind::RecoveryRung, "realign", t_now_);
            return RecoveryRung::Realign;
        }
    }

    // Rung 3: full scrub. The stripe is rebuilt at its home
    // alignment and the data image refilled — in an LLC this is an
    // invalidate-and-refetch from the level below, so position is
    // always restored at the cost of `scrub_cycles`.
    if (recovery_.allow_scrub) {
        ++stats_.scrubs;
        std::vector<Bit> image = stripe_.dumpData();
        stripe_.initializeIdeal();
        stripe_.loadData(image);
        chargeRecovery(recovery_.scrub_cycles, res);
        ++stats_.recovered_scrub;
        if (t_)
            t_->event(EventKind::RecoveryRung, "scrub", t_now_);
        return RecoveryRung::Scrub;
    }
    return RecoveryRung::None;
}

void
ShiftController::reclassifyAsDue(RecoveryRung rung)
{
    // A rung event for this episode was already traced, so the
    // reversal is traced too: reconciliation computes each bucket as
    // count("<rung>") - count("reclassified-<rung>").
    switch (rung) {
      case RecoveryRung::Retry:
        --stats_.recovered_retry;
        if (t_)
            t_->event(EventKind::RecoveryRung, "reclassified-retry",
                      t_now_);
        break;
      case RecoveryRung::Realign:
        --stats_.recovered_realign;
        if (t_)
            t_->event(EventKind::RecoveryRung, "reclassified-realign",
                      t_now_);
        break;
      case RecoveryRung::Scrub:
        --stats_.recovered_scrub;
        if (t_)
            t_->event(EventKind::RecoveryRung, "reclassified-scrub",
                      t_now_);
        break;
      case RecoveryRung::None:
        if (t_)
            t_->event(EventKind::RecoveryRung, "due", t_now_);
        break;
    }
    ++stats_.unrecoverable;
}

AccessResult
ShiftController::seek(int index, Cycles now_cycles)
{
    AccessResult res;
    if (t_)
        t_now_ = now_cycles;
    int target = stripe_.layout().offsetForIndex(index);
    if (target == stripe_.believedOffset()) {
        res.position_ok = stripe_.positionError() == 0;
        return res;
    }
    ++stats_.accesses;

    // A recovery episode may leave the believed offset off the
    // planned path (a scrub rebuilds at home), so the seek re-plans
    // after every recovered episode — cautiously, and boundedly.
    int replans = 0;
    for (;;) {
        int delta = target - stripe_.believedOffset();
        if (delta == 0)
            break;
        int direction = delta > 0 ? 1 : -1;
        const SequencePlan &plan =
            replans == 0
                ? adapter_.plan(std::abs(delta), now_cycles)
                : adapter_.cautiousPlan(std::abs(delta));
        RecoveryRung recovered_by = RecoveryRung::None;
        bool episode_failed = false;
        for (int part : plan.parts) {
            if (executePart(direction, part, res))
                continue;
            // The stripe exhausted its in-line corrections: climb
            // the escalation ladder.
            recovered_by = attemptRecovery(res);
            if (recovered_by == RecoveryRung::None) {
                ++stats_.unrecoverable;
                if (t_)
                    t_->event(EventKind::RecoveryRung, "due", t_now_);
                res.due = true;
                res.position_ok = stripe_.positionError() == 0;
                return res;
            }
            episode_failed = true;
            break; // position verified but path changed: re-plan
        }
        if (!episode_failed)
            break;
        if (++replans > recovery_.max_replans) {
            // Recovered a verified position but could not complete
            // the seek within the replan budget (e.g. a persistently
            // stuck stripe): report a DUE rather than risking an
            // unbounded retry loop. The final recovery is
            // re-accounted from its recovered bucket so each
            // detection stays in exactly one outcome bucket.
            reclassifyAsDue(recovered_by);
            res.due = true;
            res.position_ok = stripe_.positionError() == 0;
            return res;
        }
    }

    res.position_ok = stripe_.positionError() == 0;
    if (!res.position_ok && !res.due) {
        // Ground truth says we are misaligned and the code did not
        // notice: a silent data corruption in the making.
        ++stats_.silent_errors;
    }
#ifndef NDEBUG
    assert(controllerLedgerViolation(stats_).empty());
#endif
    return res;
}

AccessResult
ShiftController::delInsAccess(int segment, int index,
                              const Bit *write_value,
                              Cycles now_cycles)
{
    AccessResult res;
    if (t_)
        t_now_ = now_cycles;
    const auto &c = stripe_.config();
    if (segment < 0 || segment >= c.num_segments)
        rtm_panic("segment %d out of range", segment);
    if (index < 0 || index >= c.seg_len)
        rtm_panic("segment index %d out of range", index);
    ++stats_.accesses;

    // Every access is one protected streaming readout; on an
    // undecodable readout the same escalation ladder as the window
    // schemes runs (recoverNow dispatches to readout rounds for this
    // variant), then the readout is retried, boundedly.
    RecoveryRung recovered_by = RecoveryRung::None;
    int attempts = 0;
    for (;;) {
        const uint64_t steps_before = stripe_.stripe().stepsMoved();
        const uint64_t ops_before = stripe_.shiftOps();
        ProtectedShiftResult r = stripe_.readoutNow(nullptr);
        stats_.shift_ops += stripe_.shiftOps() - ops_before;
        const uint64_t steps =
            stripe_.stripe().stepsMoved() - steps_before;
        stats_.shift_steps += steps;
        Cycles lat = static_cast<Cycles>(steps) *
                     timing_.shiftCycles(1);
        if (r.correction_shifts > 0)
            lat += static_cast<Cycles>(r.correction_shifts) *
                   kCorrectionLogicCycles;
        stats_.busy_cycles += lat;
        res.latency += lat;
        if (r.detected) {
            ++stats_.detected_errors;
            if (t_)
                t_->event(EventKind::ErrorDetected, "del-ins", t_now_,
                          static_cast<double>(r.inferred_error),
                          static_cast<double>(r.correction_shifts));
        }
        if (!r.unrecoverable) {
            // A detected episode that ends in a verified decode is a
            // correction, whatever round it converged in.
            if (r.detected)
                ++stats_.corrected_errors;
            break;
        }
        recovered_by = attemptRecovery(res);
        if (recovered_by == RecoveryRung::None) {
            ++stats_.unrecoverable;
            if (t_)
                t_->event(EventKind::RecoveryRung, "due", t_now_);
            res.due = true;
            res.position_ok = stripe_.positionError() == 0;
            return res;
        }
        if (++attempts > recovery_.max_replans) {
            reclassifyAsDue(recovered_by);
            res.due = true;
            res.position_ok = stripe_.positionError() == 0;
            return res;
        }
    }

    // The decoded track codewords, concatenated: the stripe's full
    // data image (check bits included), indexed like its domains.
    std::vector<Bit> &image = image_;
    image.clear();
    for (const std::vector<Bit> &track : stripe_.decodedTracks())
        image.insert(image.end(), track.begin(), track.end());
    const int track_bit = segment * c.seg_len + index;
    if (write_value) {
        // Maintenance write: patch the decoded image, re-derive the
        // touched track's check bits, and write the track back. (A
        // value written onto a check position is overwritten by the
        // re-encode; the address space's data capacity is
        // delInsCode()->payloadBits(), not dataDomains().)
        const DelInsCode &code = *stripe_.delInsCode();
        image[static_cast<size_t>(track_bit)] = *write_value;
        auto first = image.begin() + segment * c.seg_len;
        std::vector<Bit> track(first, first + c.seg_len);
        track = code.encodeTrack(code.extractTrackData(track));
        std::copy(track.begin(), track.end(), first);
        stripe_.loadData(image);
    } else {
        res.value = image[static_cast<size_t>(track_bit)];
    }
    // Note on ground truth: the data above comes from the *decoded*
    // streams, so its correctness does not depend on the final
    // alignment; a fault on the trailing return shift is a latent
    // offset the next readout absorbs, not a silent corruption, and
    // is therefore not counted into silent_errors here.
    res.position_ok = stripe_.positionError() == 0;
#ifndef NDEBUG
    assert(controllerLedgerViolation(stats_).empty());
#endif
    return res;
}

AccessResult
ShiftController::read(int segment, int index, Cycles now_cycles)
{
    if (del_ins_)
        return delInsAccess(segment, index, nullptr, now_cycles);
    AccessResult res = seek(index, now_cycles);
    if (!res.due)
        res.value = stripe_.readAligned(segment);
    return res;
}

AccessResult
ShiftController::write(int segment, int index, Bit value,
                       Cycles now_cycles)
{
    if (del_ins_)
        return delInsAccess(segment, index, &value, now_cycles);
    AccessResult res = seek(index, now_cycles);
    if (!res.due)
        stripe_.writeAligned(segment, value);
    return res;
}

} // namespace rtm
