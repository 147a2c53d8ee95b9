#include "rm_bank.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace rtm
{

namespace
{

/** Sentinel: this stripe group has never shifted. */
constexpr Cycles kNeverShifted =
    std::numeric_limits<Cycles>::max();

static_assert(kDomainsPerStripe % kSegLen == 0, "whole segments only");

} // anonymous namespace

RmBank::RmBank(const RmBankConfig &config,
               const PositionErrorModel *model, const TechParams &tech)
    : config_(config), model_(model), tech_(tech),
      timing_(kDefaultClockHz, kStage1PerStepSeconds,
              kStage2PulseSeconds,
              schemeRow(config.scheme).in_path_check
                  ? kInPathCheckSeconds
                  : 0.0),
      planner_(model, timing_,
               std::max(0, schemeCorrectionStrength(config.scheme)),
               kSegLen - 1),
      adapter_(&planner_, schemeRow(config.scheme).policy,
               kPeakLlcOpsPerSecond),
      protection_(resolveProtection(config.protection,
                                    config.line_frames)),
      placement_(config.line_frames, config.placement,
                 config.head_policy),
      memo_enabled_(config.use_plan_memo)
{
    if (!model_)
        rtm_fatal("RmBank needs an error model");
    const std::vector<ProtectionPolicyFault> faults =
        protectionPolicyErrors(config.protection);
    if (!faults.empty())
        rtm_fatal("protection.%s: %s", faults[0].field.c_str(),
                  faults[0].reason.c_str());
    if (config_.line_frames == 0)
        rtm_fatal("RmBank needs at least one frame");
    for (size_t i = 0; i < protection_.domains.size(); ++i) {
        ProtectionDomain &d = protection_.domains[i];
        const Scheme es = d.has_scheme ? d.scheme : config_.scheme;
        if (d.codeword_frames > 1 &&
            schemeCorrectionStrength(es) < 0) {
            // An unprotected scheme has no code to pool: serve the
            // domain per-frame instead of refusing the whole sweep
            // cell (the standard matrix includes baseline options).
            rtm_warn("protection domain %zu: scheme '%s' is "
                     "unprotected; serving per-frame codewords",
                     i, enumToken(es));
            d.codeword_frames = 1;
            d.two_tier = false;
        }
        const std::string err = protectionDomainError(
            d, config_.scheme, kSegLen, kDomainsPerStripe);
        if (!err.empty())
            rtm_fatal("protection domain %zu: %s", i, err.c_str());
        domain_models_.emplace_back(model, es, d.codeword_frames);
    }
    constexpr uint64_t fpg = kDomainsPerStripe;
    const uint64_t groups = (config_.line_frames + fpg - 1) / fpg;
    head_.assign(groups, 0);
    last_access_.assign(groups, kNeverShifted);
    degraded_.assign(groups, 0);
    due_count_.assign(groups, 0);
    remap_.resize(groups);
    for (uint64_t g = 0; g < groups; ++g)
        remap_[g] = g;
    serving_memo_ = remap_;
    group_stats_.assign(groups, RmGroupStats{});
    buildPlanMemo();

    if (config_.telemetry) {
        Telemetry &t = *config_.telemetry.get();
        t_events_ = &t;
        t_accesses_ = &t.counter("mem.rm_bank.accesses");
        t_shift_ops_ = &t.counter("mem.rm_bank.shift_ops");
        t_shift_steps_ = &t.counter("mem.rm_bank.shift_steps");
        t_remaps_ = &t.counter("mem.rm_bank.remapped_accesses");
        t_due_reports_ = &t.counter("mem.rm_bank.due_reports");
        t_retired_ = &t.counter("mem.rm_bank.groups_retired");
        t_migrations_ = &t.counter("mem.rm_bank.migrations");
        t_migration_steps_ =
            &t.counter("mem.rm_bank.migration_steps");
        t_shift_latency_ = &t.histogram(
            "mem.rm_bank.shift_latency_cycles", powerOfTwoEdges(4096));
    }
}

RmBank::PlanCost
RmBank::foldParts(const std::vector<int> &parts, int dom) const
{
    PlanCost pc;
    for (int p : parts) {
        pc.latency += timing_.shiftCycles(p);
        pc.energy += shiftOpEnergy(p);
        pc.total_steps += p;
        ++pc.sub_shifts;
    }
    const ShiftReliability rel =
        domain_models_[static_cast<size_t>(dom)].sequence(parts);
    pc.sdc_prob = std::exp(rel.log_sdc);
    pc.due_prob = std::exp(rel.log_due);
    return pc;
}

void
RmBank::buildPlanMemo()
{
    one_step_cycles_ = timing_.shiftCycles(1);
    one_step_energy_ = shiftOpEnergy(1);

    // Heads travel within one segment, so every request distance is
    // in [1, kSegLen - 1]. Fold each plan the adapter may pick, and
    // each run of that many single steps (idle drift, migrations),
    // in every domain.
    constexpr int max_distance = kSegLen - 1;
    const int domains = static_cast<int>(domain_models_.size());
    plan_memo_.assign(static_cast<size_t>(domains * max_distance), {});
    drift_memo_.assign(static_cast<size_t>(domains * kSegLen),
                       PlanCost{});
    for (int dom = 0; dom < domains; ++dom) {
        for (int d = 1; d <= max_distance; ++d) {
            auto &entries = plan_memo_[static_cast<size_t>(
                dom * max_distance + d - 1)];
            for (const SequencePlan &plan : adapter_.plans(d))
                entries.push_back(foldParts(plan.parts, dom));
            drift_memo_[static_cast<size_t>(dom * kSegLen + d)] =
                foldParts(std::vector<int>(static_cast<size_t>(d), 1),
                          dom);
        }
    }
}

void
RmBank::chargeOffPath(uint64_t group, int dom, int steps)
{
    const auto n = static_cast<uint64_t>(steps);
    stats_.shift_ops += n;
    stats_.shift_steps += n;
    group_stats_[group].shift_ops += n;
    group_stats_[group].shift_steps += n;
    // Charged per step, not as the fold's per-shift sum, which
    // rounds differently.
    stats_.shift_energy += static_cast<double>(steps) * one_step_energy_;
    const PlanCost pc =
        memo_enabled_
            ? drift_memo_[static_cast<size_t>(dom * kSegLen + steps)]
            : foldParts(std::vector<int>(n, 1), dom);
    stats_.reliability.addExpected(pc.sdc_prob, pc.due_prob,
                                   kStripesPerLine);
    if (t_events_) {
        // Mirror the ledger exactly: off-path shifts count too.
        t_shift_ops_->add(n);
        t_shift_steps_->add(n);
    }
}

void
RmBank::driftToRest(uint64_t group, Cycles now)
{
    const std::optional<int> rest = placement_.restOffset(group);
    if (!rest || last_access_[group] == kNeverShifted)
        return;
    // The drift happens off the critical path during idle time; it
    // completes only if the group has been idle long enough to walk
    // back (1-step sub-shifts, the gentlest drive).
    Cycles idle = now > last_access_[group]
                      ? now - last_access_[group]
                      : 0;
    int dist = std::abs(static_cast<int>(head_[group]) - *rest);
    if (dist == 0)
        return;
    Cycles needed = static_cast<Cycles>(dist) * one_step_cycles_;
    if (idle >= needed + 64) { // small hysteresis before drifting
        head_[group] = static_cast<int8_t>(*rest);
        // The drift is real work: energy, steps, and failure
        // opportunities, even though it hides off the access path.
        // Domain of the group's first frame; regions snap to
        // codeword boundaries, far finer than a group, so frames of
        // one group rarely span domains (and drift reliability is a
        // per-group approximation anyway).
        chargeOffPath(
            group, protection_.domainIndexFor(group * kDomainsPerStripe),
            dist);
    }
}

Joules
RmBank::shiftOpEnergy(int steps) const
{
    // Decompose the Table 4 per-step shift energy into a stage-1
    // component (proportional to distance) and the fixed stage-2
    // sub-threshold pulse: at 2*J0 for 0.4 ns vs ~J0 for 1 ns the
    // split is 2:1 for a 1-step shift.
    double e1 = tech_.shift_energy_per_step * (2.0 / 3.0);
    double e2 = tech_.shift_energy_per_step * (1.0 / 3.0);
    double energy = e1 * static_cast<double>(steps) + e2;
    // p-ECC detection once per shift operation, on every stripe of
    // the group.
    const SchemeRow &row = schemeRow(config_.scheme);
    if (row.in_path_check) {
        energy += row.overheads.detect_energy * kStripesPerLine;
    }
    return energy;
}

ShiftCost
RmBank::accessFrame(uint64_t frame_index, Cycles now)
{
    if (frame_index >= config_.line_frames)
        rtm_panic("frame %llu out of range",
                  static_cast<unsigned long long>(frame_index));
    // Protection domain is keyed on the logical frame address, so
    // it survives degradation remaps.
    const int dom = protection_.domainIndexFor(frame_index);
    uint64_t group = groupOf(frame_index);
    if (stats_.degraded_groups > 0 && degraded_[group]) {
        // The home group has been retired: serve from its remap
        // target. The frame keeps its segment-local slot, so only
        // the group (and its head state) changes.
        uint64_t serving = serving_memo_[group];
        if (serving != group) {
            ++stats_.remapped_accesses;
            if (t_events_) {
                t_remaps_->add();
                t_events_->event(EventKind::FrameRemapped, "rm_bank",
                                 now, static_cast<double>(group),
                                 static_cast<double>(serving));
            }
        }
        group = serving;
    }
    // Placement bookkeeping: access counters, epoch boundaries, and
    // any migrations a dynamic policy schedules. Migrations are
    // charged before this access so it is served from the new slot.
    if (placement_.tracking()) {
        migration_scratch_.clear();
        placement_.recordAccess(frame_index, &migration_scratch_);
        for (const PlacementMigration &m : migration_scratch_)
            chargeMigration(m);
    }
    driftToRest(group, now);
    int target = placement_.slotOffset(frame_index);
    int cur = head_[group];
    ++stats_.accesses;
    ++group_stats_[group].accesses;
    if (t_accesses_)
        t_accesses_->add();
    last_access_[group] = now;
    if (target == cur)
        return {};

    int distance = std::abs(target - cur);
    stats_.distance_histogram.add(distance);

    // The scheme's policy picks the plan from the memory-wide request
    // interval (paper Sec. 5.3); the memo holds the fold of every
    // plan it may pick.
    const size_t choice = adapter_.choose(distance, now);
    PlanCost pc;
    if (memo_enabled_) {
        pc = plan_memo_[static_cast<size_t>(
            dom * (kSegLen - 1) + distance - 1)][choice];
        ++stats_.plan_memo_hits;
    } else {
        pc = foldParts(adapter_.plans(distance)[choice].parts, dom);
    }
    const ShiftCost cost{pc.latency, pc.energy, pc.total_steps,
                         pc.sub_shifts};
    // Reliability: every stripe in the group shifts independently
    // and is an independent failure opportunity.
    stats_.reliability.addExpected(pc.sdc_prob, pc.due_prob,
                                   kStripesPerLine);

    head_[group] = static_cast<int8_t>(target);
    stats_.shift_ops += static_cast<uint64_t>(cost.sub_shifts);
    stats_.shift_steps += static_cast<uint64_t>(cost.total_steps);
    group_stats_[group].shift_ops +=
        static_cast<uint64_t>(cost.sub_shifts);
    group_stats_[group].shift_steps +=
        static_cast<uint64_t>(cost.total_steps);
    stats_.shift_cycles += cost.latency;
    stats_.shift_energy += cost.energy;
    if (t_events_) {
        t_shift_ops_->add(static_cast<uint64_t>(cost.sub_shifts));
        t_shift_steps_->add(static_cast<uint64_t>(cost.total_steps));
        t_shift_latency_->record(static_cast<double>(cost.latency));
        t_events_->event(EventKind::ShiftIssued, "rm_bank", now,
                         static_cast<double>(distance),
                         static_cast<double>(cost.latency));
    }
    return cost;
}

ShiftCost
RmBank::accessLine(uint64_t frame_index, bool is_write, Cycles now)
{
    ShiftCost cost = accessFrame(frame_index, now);
    const ProtectionDomain &pd = protection_.domainFor(frame_index);
    if (pd.codeword_frames <= 1 || (!is_write && pd.two_tier))
        return cost;
    // The pooled check region lives in the codeword's base frame
    // slot. codeword_frames is 2, 4 or 8 and divides
    // kDomainsPerStripe (validated at construction), so the base
    // frame shares the data frame's group; accessFrame looks up its
    // own domain, since snapped regions may share frames.
    const auto f = static_cast<uint64_t>(pd.codeword_frames);
    const ShiftCost red = accessFrame(frame_index & ~(f - 1), now);
    ++stats_.redundancy_accesses;
    stats_.redundancy_steps += static_cast<uint64_t>(red.total_steps);
    cost.latency += red.latency;
    cost.energy += red.energy;
    cost.total_steps += red.total_steps;
    cost.sub_shifts += red.sub_shifts;
    return cost;
}

void
RmBank::chargeMigration(const PlacementMigration &m)
{
    const int dist = std::abs(m.to_offset - m.from_offset);
    if (dist == 0)
        return;
    // The move happens where the frame physically lives today (the
    // remap target if its home group was retired).
    const uint64_t g = serving_memo_[groupOf(m.frame)];
    const auto steps = static_cast<uint64_t>(dist);
    ++stats_.migrations;
    stats_.migration_steps += steps;
    group_stats_[g].migration_steps += steps;
    if (t_events_) {
        t_migrations_->add();
        t_migration_steps_->add(steps);
    }
    chargeOffPath(g, protection_.domainIndexFor(m.frame), dist);
}

uint64_t
RmBank::servingGroupFor(uint64_t frame_index) const
{
    return serving_memo_[groupOf(frame_index)];
}

void
RmBank::rebuildServingMemo()
{
    // Resolve every home group's chain once per retirement instead
    // of on every access. A remap target chosen at retire time may
    // itself have been retired since, so follow the chain; the hop
    // guard bounds the walk even if every group has been retired.
    for (uint64_t home = 0; home < head_.size(); ++home) {
        uint64_t g = home;
        for (uint64_t hops = 0;
             degraded_[g] && hops < head_.size(); ++hops) {
            g = remap_[g];
        }
        // Every group degraded: serve in place (capacity model
        // only).
        serving_memo_[home] = degraded_[g] ? home : g;
    }
}

bool
RmBank::reportUnrecoverable(uint64_t frame_index)
{
    if (frame_index >= config_.line_frames)
        rtm_panic("frame %llu out of range",
                  static_cast<unsigned long long>(frame_index));
    ++stats_.due_reports;
    if (t_due_reports_)
        t_due_reports_->add();
    if (config_.group_retry_budget <= 0)
        return false; // degradation disabled
    uint64_t group = groupOf(frame_index);
    if (degraded_[group])
        return false; // already retired
    if (++due_count_[group] <
        static_cast<uint32_t>(config_.group_retry_budget)) {
        return false;
    }

    // Retire the group: remap its frames to the next healthy group
    // scanning upward (deterministic, wraps around). If none is
    // left, the group maps to itself and the bank serves in place.
    uint64_t groups = head_.size();
    uint64_t target = group;
    for (uint64_t step = 1; step < groups; ++step) {
        uint64_t cand = (group + step) % groups;
        if (!degraded_[cand]) {
            target = cand;
            break;
        }
    }
    degraded_[group] = 1;
    remap_[group] = target;
    ++stats_.degraded_groups;
    rebuildServingMemo();
    if (t_events_) {
        t_retired_->add();
        t_events_->event(EventKind::GroupRetired, "rm_bank",
                         adapter_.lastRequest(),
                         static_cast<double>(group),
                         static_cast<double>(target));
    }
    if (target == group && !warned_all_degraded_) {
        rtm_warn("all %llu stripe groups degraded; bank serves "
                 "frames in place (no healthy remap target)",
                 static_cast<unsigned long long>(groups));
        warned_all_degraded_ = true;
    }
    return true;
}

double
RmBank::degradedCapacityFraction() const
{
    if (stats_.degraded_groups == 0)
        return 0.0;
    uint64_t lost = 0;
    constexpr uint64_t per_group = kDomainsPerStripe;
    for (uint64_t g = 0; g < head_.size(); ++g) {
        if (!degraded_[g])
            continue;
        uint64_t first = g * per_group;
        lost += std::min(config_.line_frames - first, per_group);
    }
    return static_cast<double>(lost) /
           static_cast<double>(config_.line_frames);
}

std::string
RmBank::ledgerViolation() const
{
    RmGroupStats sum;
    uint64_t flagged = 0;
    for (uint64_t g = 0; g < head_.size(); ++g) {
        sum.accesses += group_stats_[g].accesses;
        sum.shift_ops += group_stats_[g].shift_ops;
        sum.shift_steps += group_stats_[g].shift_steps;
        sum.migration_steps += group_stats_[g].migration_steps;
        if (degraded_[g])
            ++flagged;
    }
    if (sum.accesses != stats_.accesses)
        return "per-group accesses do not sum to bank accesses";
    if (sum.shift_ops != stats_.shift_ops)
        return "per-group shift ops do not sum to bank shift ops";
    if (sum.shift_steps != stats_.shift_steps)
        return "per-group shift steps do not sum to bank steps";
    if (sum.migration_steps != stats_.migration_steps)
        return "per-group migration steps do not sum to bank "
               "migration steps";
    if (stats_.migration_steps > stats_.shift_steps)
        return "migration steps exceed total shift steps";
    if (stats_.migrations > stats_.migration_steps)
        return "more migrations than migration steps";
    if (flagged != stats_.degraded_groups)
        return "degraded flags disagree with degraded_groups";
    if (stats_.remapped_accesses > stats_.accesses)
        return "more remapped accesses than accesses";
    if (stats_.redundancy_accesses > stats_.accesses)
        return "more redundancy accesses than accesses";
    if (stats_.redundancy_steps > stats_.shift_steps)
        return "redundancy steps exceed total shift steps";
    return "";
}

} // namespace rtm
