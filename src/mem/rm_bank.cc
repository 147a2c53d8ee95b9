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

} // anonymous namespace

RmBank::RmBank(const RmBankConfig &config,
               const PositionErrorModel *model, const TechParams &tech)
    : config_(config), model_(model), tech_(tech),
      timing_(kDefaultClockHz, 0.4e-9, 1.0e-9,
              schemeRow(config.scheme).in_path_check
                  ? kInPathCheckSeconds
                  : 0.0),
      planner_(model, timing_,
               std::max(0, schemeCorrectionStrength(config.scheme)),
               config.seg_len - 1, config.mttf_target_s),
      protection_(resolveProtection(config.protection,
                                    config.line_frames)),
      reliability_model_(model,
                         protection_.domains[0].has_scheme
                             ? protection_.domains[0].scheme
                             : config.scheme,
                         protection_.domains[0].codeword_frames),
      policy_(schemeRow(config.scheme).policy),
      memo_enabled_(config.use_plan_memo)
{
    if (!model_)
        rtm_fatal("RmBank needs an error model");
    if (config_.line_frames == 0)
        rtm_fatal("RmBank needs at least one frame");
    if (config_.seg_len < 1 || config_.frames_per_group < 1 ||
        config_.frames_per_group % config_.seg_len != 0)
        rtm_fatal("frames_per_group must be a multiple of seg_len");
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
                     i, schemeToken(es));
            d.codeword_frames = 1;
            d.two_tier = false;
        }
        const std::string err = protectionDomainError(
            d, config_.scheme, config_.seg_len,
            config_.frames_per_group);
        if (!err.empty())
            rtm_fatal("protection domain %zu: %s", i, err.c_str());
        if (i > 0) {
            extra_models_.emplace_back(
                model, d.has_scheme ? d.scheme : config_.scheme,
                d.codeword_frames);
        }
        codeword_div_.emplace_back(
            static_cast<uint64_t>(std::max(d.codeword_frames, 1)));
    }
    const auto fpg = static_cast<uint64_t>(config_.frames_per_group);
    group_div_ = Divider(fpg);
    uint64_t groups = (config_.line_frames + fpg - 1) / fpg;
    head_.assign(groups, 0);
    busy_until_.assign(groups, 0);
    last_access_.assign(groups, kNeverShifted);
    degraded_.assign(groups, 0);
    due_count_.assign(groups, 0);
    remap_.resize(groups);
    for (uint64_t g = 0; g < groups; ++g)
        remap_[g] = g;
    serving_memo_ = remap_;
    group_stats_.assign(groups, RmGroupStats{});
    PlacementGeometry geom;
    geom.line_frames = config_.line_frames;
    geom.frames_per_group = config_.frames_per_group;
    geom.seg_len = config_.seg_len;
    placement_ = makePlacementPolicy(geom, config_.placement,
                                     config_.head_policy);
    // A cold memory has been idle "forever": the adaptive policy may
    // use its most permissive plan on the very first shift.
    last_shift_ = kNeverShifted;
    worst_case_distance_ =
        planner_.safeDistance(config_.peak_ops_per_second);
    invalidatePlanMemo();

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

/**
 * Decompose `distance` into sub-shift parts under a static policy;
 * both the plan memo and the live (non-memo) access path use it. The
 * adaptive policy is handled by the callers (the Pareto front for the
 * memo, planFor for the live path).
 */
static std::vector<int>
staticPartsFor(ShiftPolicy policy, int distance, int worst_case)
{
    std::vector<int> parts;
    switch (policy) {
      case ShiftPolicy::Unconstrained:
        parts = {distance};
        break;
      case ShiftPolicy::StepByStep:
        parts.assign(static_cast<size_t>(distance), 1);
        break;
      case ShiftPolicy::WorstCase: {
        int remaining = distance;
        while (remaining > 0) {
            int p = std::min(remaining, worst_case);
            parts.push_back(p);
            remaining -= p;
        }
        break;
      }
      case ShiftPolicy::Adaptive:
        break; // caller enumerates the Pareto front instead
    }
    return parts;
}

void
RmBank::invalidatePlanMemo()
{
    one_step_cycles_ = timing_.shiftCycles(1);
    one_step_energy_ = shiftOpEnergy(1);

    // Heads travel within one segment, so every request distance is
    // in [1, seg_len - 1]; precompute each distance's decomposition
    // cost with the identical per-part fold the live path performs,
    // so serving from the memo reproduces its arithmetic bit for
    // bit.
    const int max_distance = config_.seg_len - 1;
    plan_memo_.assign(static_cast<size_t>(std::max(max_distance, 0)),
                      {});
    drift_memo_.assign(static_cast<size_t>(max_distance) + 1,
                       PlanCost{});
    for (int d = 1; d <= max_distance; ++d) {
        std::vector<std::vector<int>> decomps;
        std::vector<Cycles> intervals;
        if (policy_ == ShiftPolicy::Adaptive) {
            // One interval bucket per Pareto plan, in planFor's scan
            // order: the first entry whose min_interval the observed
            // interval meets is the plan the planner would pick.
            for (const SequencePlan &plan : planner_.paretoFront(d)) {
                decomps.push_back(plan.parts);
                intervals.push_back(plan.min_interval);
            }
        } else {
            decomps.push_back(
                staticPartsFor(policy_, d, worst_case_distance_));
            intervals.push_back(0);
        }
        auto &entries = plan_memo_[static_cast<size_t>(d - 1)];
        entries.reserve(decomps.size());
        for (size_t i = 0; i < decomps.size(); ++i) {
            PlanCost pc;
            pc.min_interval = intervals[i];
            for (int p : decomps[i]) {
                pc.latency += timing_.shiftCycles(p);
                pc.energy += shiftOpEnergy(p);
                pc.total_steps += p;
                ++pc.sub_shifts;
            }
            ShiftReliability rel =
                reliability_model_.sequence(decomps[i]);
            pc.sdc_prob = std::exp(rel.log_sdc);
            pc.due_prob = std::exp(rel.log_due);
            for (const ReliabilityModel &dm : extra_models_) {
                ShiftReliability r = dm.sequence(decomps[i]);
                pc.extra_sdc.push_back(std::exp(r.log_sdc));
                pc.extra_due.push_back(std::exp(r.log_due));
            }
            entries.push_back(pc);
        }

        // Idle head drift performs d single-step shifts; cache that
        // sequence's reliability fold too (applyHeadPolicy).
        const std::vector<int> drift_parts(static_cast<size_t>(d), 1);
        ShiftReliability drift =
            reliability_model_.sequence(drift_parts);
        PlanCost &dc = drift_memo_[static_cast<size_t>(d)];
        dc.sdc_prob = std::exp(drift.log_sdc);
        dc.due_prob = std::exp(drift.log_due);
        for (const ReliabilityModel &dm : extra_models_) {
            ShiftReliability r = dm.sequence(drift_parts);
            dc.extra_sdc.push_back(std::exp(r.log_sdc));
            dc.extra_due.push_back(std::exp(r.log_due));
        }
    }
}

void
RmBank::addMemoReliability(const PlanCost &pc, int dom)
{
    const double weight =
        static_cast<double>(config_.stripes_per_group);
    if (dom == 0) {
        stats_.reliability.addExpected(pc.sdc_prob, pc.due_prob,
                                       weight);
    } else {
        stats_.reliability.addExpected(
            pc.extra_sdc[static_cast<size_t>(dom - 1)],
            pc.extra_due[static_cast<size_t>(dom - 1)], weight);
    }
}

void
RmBank::applyHeadPolicy(uint64_t group, Cycles now)
{
    if (config_.head_policy == HeadPolicy::Stay)
        return;
    if (last_access_[group] == kNeverShifted)
        return;
    // The drift happens off the critical path during idle time; it
    // completes only if the group has been idle long enough to walk
    // back (1-step sub-shifts, the gentlest drive).
    Cycles idle = now > last_access_[group]
                      ? now - last_access_[group]
                      : 0;
    int rest = placement_->restOffset(group);
    int dist = std::abs(static_cast<int>(head_[group]) - rest);
    if (dist == 0)
        return;
    Cycles needed = static_cast<Cycles>(dist) * one_step_cycles_;
    if (idle >= needed + 64) { // small hysteresis before drifting
        head_[group] = static_cast<int8_t>(rest);
        // The drift is real work: energy, steps, and failure
        // opportunities, even though it hides off the access path.
        stats_.shift_ops += static_cast<uint64_t>(dist);
        stats_.shift_steps += static_cast<uint64_t>(dist);
        group_stats_[group].shift_ops += static_cast<uint64_t>(dist);
        group_stats_[group].shift_steps +=
            static_cast<uint64_t>(dist);
        stats_.shift_energy +=
            static_cast<double>(dist) * one_step_energy_;
        if (t_events_) {
            // Mirror the ledger exactly: drift shifts count too.
            t_shift_ops_->add(static_cast<uint64_t>(dist));
            t_shift_steps_->add(static_cast<uint64_t>(dist));
        }
        // Domain of the group's first frame; regions snap to
        // codeword boundaries, far finer than a group, so frames of
        // one group rarely span domains (and drift reliability is a
        // per-group approximation anyway).
        const int dom = protection_.domainIndexFor(
            group * static_cast<uint64_t>(config_.frames_per_group));
        if (memo_enabled_) {
            addMemoReliability(drift_memo_[static_cast<size_t>(dist)],
                               dom);
        } else {
            ShiftReliability rel = domainModel(dom).sequence(
                std::vector<int>(static_cast<size_t>(dist), 1));
            stats_.reliability.add(
                rel, static_cast<double>(config_.stripes_per_group));
        }
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
        energy += row.overheads.detect_energy *
                  static_cast<double>(config_.stripes_per_group);
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
    if (placement_->tracking()) {
        migration_scratch_.clear();
        placement_->recordAccess(frame_index, &migration_scratch_);
        for (const PlacementMigration &m : migration_scratch_)
            chargeMigration(m);
    }
    applyHeadPolicy(group, now);
    int target = placement_->slotOffset(frame_index);
    int cur = head_[group];
    ShiftCost cost;
    ++stats_.accesses;
    ++group_stats_[group].accesses;
    if (t_accesses_)
        t_accesses_->add();
    // Contention: wait out the group's previous shift sequence.
    if (config_.model_contention && busy_until_[group] > now) {
        cost.stall = busy_until_[group] - now;
        cost.latency += cost.stall;
    }
    last_access_[group] = now;
    if (target == cur) {
        stats_.shift_cycles += cost.latency;
        return cost;
    }

    int distance = std::abs(target - cur);
    stats_.distance_histogram.add(distance);

    // Plan under the scheme's policy using the memory-wide request
    // interval (paper Sec. 5.3); interleaved service multiplies the
    // effective intensity, i.e. divides the usable interval.
    Cycles interval;
    if (last_shift_ == kNeverShifted) {
        interval = kNeverShifted;
    } else {
        interval = now > last_shift_ ? now - last_shift_ : 0;
        if (config_.interleave_ways > 1)
            interval /= static_cast<Cycles>(config_.interleave_ways);
    }
    if (memo_enabled_) {
        // Fast path: the decomposition cost and its reliability fold
        // were precomputed per (distance, interval bucket); entries
        // mirror planFor's scan, so picking the first bucket the
        // interval satisfies reproduces the live plan selection.
        const auto &entries =
            plan_memo_[static_cast<size_t>(distance - 1)];
        const PlanCost *pc = &entries.back();
        for (const PlanCost &e : entries) {
            if (e.min_interval <= interval) {
                pc = &e;
                break;
            }
        }
        cost.latency += pc->latency;
        cost.energy += pc->energy;
        cost.total_steps += pc->total_steps;
        cost.sub_shifts += pc->sub_shifts;
        addMemoReliability(*pc, dom);
        ++stats_.plan_memo_hits;
    } else {
        std::vector<int> scratch;
        const std::vector<int> *parts = &scratch;
        if (policy_ == ShiftPolicy::Adaptive)
            parts = &planner_.planFor(distance, interval).parts;
        else
            scratch = staticPartsFor(policy_, distance,
                                     worst_case_distance_);

        for (int p : *parts) {
            cost.latency += timing_.shiftCycles(p);
            cost.energy += shiftOpEnergy(p);
            cost.total_steps += p;
            ++cost.sub_shifts;
        }

        // Reliability: every stripe in the group shifts independently
        // and is an independent failure opportunity.
        ShiftReliability rel = domainModel(dom).sequence(*parts);
        stats_.reliability.add(
            rel, static_cast<double>(config_.stripes_per_group));
    }

    head_[group] = static_cast<int8_t>(target);
    last_shift_ = now;
    busy_until_[group] = now + cost.latency;
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
RmBank::accessRedundancy(uint64_t frame_index, Cycles now)
{
    const auto dom =
        static_cast<size_t>(protection_.domainIndexFor(frame_index));
    if (protection_.domains[dom].codeword_frames <= 1)
        return {};
    // The pooled check region lives in the codeword's base frame
    // slot. codeword_frames divides frames_per_group (validated at
    // construction), so the base frame shares the data frame's
    // group and domain.
    const uint64_t base =
        frame_index - codeword_div_[dom].remainder(frame_index);
    ShiftCost cost = accessFrame(base, now);
    ++stats_.redundancy_accesses;
    stats_.redundancy_steps +=
        static_cast<uint64_t>(cost.total_steps);
    return cost;
}

void
RmBank::chargeMigration(const PlacementMigration &m)
{
    int dist = std::abs(m.to_offset - m.from_offset);
    if (dist == 0)
        return;
    // The move happens where the frame physically lives today (the
    // remap target if its home group was retired).
    uint64_t g = serving_memo_[groupOf(m.frame)];
    uint64_t steps = static_cast<uint64_t>(dist);
    ++stats_.migrations;
    stats_.migration_steps += steps;
    stats_.shift_ops += steps;
    stats_.shift_steps += steps;
    group_stats_[g].shift_ops += steps;
    group_stats_[g].shift_steps += steps;
    group_stats_[g].migration_steps += steps;
    stats_.shift_energy +=
        static_cast<double>(dist) * one_step_energy_;
    const int dom = protection_.domainIndexFor(m.frame);
    if (memo_enabled_) {
        addMemoReliability(drift_memo_[static_cast<size_t>(dist)],
                           dom);
    } else {
        ShiftReliability rel = domainModel(dom).sequence(
            std::vector<int>(static_cast<size_t>(dist), 1));
        stats_.reliability.add(
            rel, static_cast<double>(config_.stripes_per_group));
    }
    if (t_events_) {
        // Mirror the ledger exactly: migration shifts count too.
        t_migrations_->add();
        t_migration_steps_->add(steps);
        t_shift_ops_->add(steps);
        t_shift_steps_->add(steps);
    }
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
                         last_shift_ == kNeverShifted ? 0
                                                      : last_shift_,
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
    uint64_t per_group =
        static_cast<uint64_t>(config_.frames_per_group);
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
