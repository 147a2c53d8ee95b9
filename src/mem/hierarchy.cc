#include "hierarchy.hh"

#include <algorithm>

#include "util/logging.hh"

namespace rtm
{

std::string
hierarchyGeometryError(const HierarchyConfig &config)
{
    if (config.cores < 1)
        return "hierarchy needs at least one core";
    const uint64_t d = config.capacity_divisor;
    if (d == 0)
        return "capacity divisor must be >= 1";
    const uint64_t l1_bytes = l1Params().capacity_bytes / d;
    const uint64_t min_bytes =
        static_cast<uint64_t>(std::max(config.line_bytes, 0)) * 16;
    if (l1_bytes < min_bytes)
        return "capacity divisor " + std::to_string(d) +
               " leaves L1 below " + std::to_string(min_bytes) +
               " bytes";
    const struct
    {
        const char *name;
        uint64_t bytes;
        int ways;
    } levels[] = {
        {"L1", l1_bytes, config.l1_ways},
        {"L2", l2Params().capacity_bytes / d, config.l2_ways},
        {"L3", l3For(config.llc_tech).capacity_bytes / d,
         config.llc_ways},
    };
    for (const auto &level : levels) {
        const std::string err = cacheGeometryError(
            level.bytes, level.ways, config.line_bytes);
        if (!err.empty())
            return std::string(level.name) + " under capacity divisor " +
                   std::to_string(d) + ": " + err;
    }
    return "";
}

Hierarchy::Hierarchy(const HierarchyConfig &config,
                     const PositionErrorModel *model)
    : config_(config), l1_params_(l1Params()), l2_params_(l2Params()),
      l3_params_(l3For(config.llc_tech)), dram_(dramParams())
{
    const std::string err = hierarchyGeometryError(config_);
    if (!err.empty())
        rtm_fatal("%s", err.c_str());
    l1_params_.capacity_bytes /= config_.capacity_divisor;
    l2_params_.capacity_bytes /= config_.capacity_divisor;
    l3_params_.capacity_bytes /= config_.capacity_divisor;
    for (int c = 0; c < config_.cores; ++c) {
        l1_.push_back(std::make_unique<Cache>(
            l1_params_.capacity_bytes, config_.l1_ways,
            config_.line_bytes));
    }
    int clusters = (config_.cores + 1) / 2;
    for (int cl = 0; cl < clusters; ++cl) {
        l2_.push_back(std::make_unique<Cache>(
            l2_params_.capacity_bytes, config_.l2_ways,
            config_.line_bytes));
    }
    l3_ = std::make_unique<Cache>(l3_params_.capacity_bytes,
                                  config_.llc_ways,
                                  config_.line_bytes);

    if (config_.llc_tech == MemTech::Racetrack ||
        config_.llc_tech == MemTech::RacetrackIdeal) {
        if (!model)
            rtm_fatal("racetrack LLC needs a position-error model");
        RmBankConfig bank;
        bank.line_frames = l3_params_.capacity_bytes /
                           static_cast<uint64_t>(config_.line_bytes);
        bank.frames_per_group = config_.frames_per_group;
        bank.seg_len = config_.seg_len;
        bank.scheme = config_.scheme;
        // A uniform / llc-level scheme override replaces the bank's
        // base scheme outright (timing and planning included);
        // region-scoped overrides stay classification-only.
        const ProtectionDomain &llc = config_.protection.llcDomain();
        if (llc.has_scheme)
            bank.scheme = llc.scheme;
        bank.protection = config_.protection;
        bank.mttf_target_s = config_.mttf_target_s;
        bank.head_policy = config_.head_policy;
        bank.placement = config_.placement;
        bank.model_contention = config_.model_contention;
        bank.telemetry = config_.telemetry;
        rm_bank_ = std::make_unique<RmBank>(bank, model, l3_params_);
    }
}

const Cache &
Hierarchy::l1(int core) const
{
    if (core < 0 || core >= config_.cores)
        rtm_panic("core %d out of range", core);
    return *l1_[static_cast<size_t>(core)];
}

const Cache &
Hierarchy::l2(int cluster) const
{
    if (cluster < 0 ||
        cluster >= static_cast<int>(l2_.size()))
        rtm_panic("cluster %d out of range", cluster);
    return *l2_[static_cast<size_t>(cluster)];
}

void
Hierarchy::exportTelemetry(Telemetry &sink) const
{
    auto level = [&sink](const char *name, const CacheStats &s) {
        std::string prefix = std::string("mem.") + name + ".";
        sink.counter(prefix + "accesses").add(s.accesses());
        sink.counter(prefix + "hits").add(s.accesses() - s.misses());
        sink.counter(prefix + "misses").add(s.misses());
        sink.counter(prefix + "writebacks").add(s.writebacks);
    };
    CacheStats l1_sum;
    for (const auto &c : l1_) {
        const CacheStats &s = c->stats();
        l1_sum.reads += s.reads;
        l1_sum.writes += s.writes;
        l1_sum.read_misses += s.read_misses;
        l1_sum.write_misses += s.write_misses;
        l1_sum.writebacks += s.writebacks;
    }
    CacheStats l2_sum;
    for (const auto &c : l2_) {
        const CacheStats &s = c->stats();
        l2_sum.reads += s.reads;
        l2_sum.writes += s.writes;
        l2_sum.read_misses += s.read_misses;
        l2_sum.write_misses += s.write_misses;
        l2_sum.writebacks += s.writebacks;
    }
    level("l1", l1_sum);
    level("l2", l2_sum);
    level("l3", l3_->stats());
    sink.counter("mem.dram.accesses").add(dram_accesses_);
    sink.gauge("mem.dram.energy_joules").set(dram_energy_);
}

double
Hierarchy::totalLeakageWatts() const
{
    double watts = l1_params_.leakage_watts *
                   static_cast<double>(config_.cores);
    watts += l2_params_.leakage_watts *
             static_cast<double>(l2_.size());
    watts += l3_params_.leakage_watts;
    return watts;
}

HierarchyAccess
Hierarchy::access(int core, Addr addr, bool is_write, Cycles now)
{
    if (core < 0 || core >= config_.cores)
        rtm_panic("core %d out of range", core);
    HierarchyAccess out;

    // --- L1 -----------------------------------------------------------
    Cache &l1c = *l1_[static_cast<size_t>(core)];
    CacheAccessResult r1 = l1c.access(addr, is_write);
    out.latency += is_write ? l1_params_.write_latency
                            : l1_params_.read_latency;
    out.energy += is_write ? l1_params_.write_energy
                           : l1_params_.read_energy;
    if (r1.hit) {
        out.l1_hit = true;
        return out;
    }
    // A dirty L1 victim writes through to L2 (energy only; the write
    // happens off the critical path).
    Cache &l2c = *l2_[static_cast<size_t>(core / 2)];
    if (r1.writeback) {
        l2c.access(r1.victim_addr, true);
        out.energy += l2_params_.write_energy;
    }

    // --- L2 -----------------------------------------------------------
    CacheAccessResult r2 = l2c.access(addr, is_write);
    out.latency += is_write ? l2_params_.write_latency
                            : l2_params_.read_latency;
    out.energy += is_write ? l2_params_.write_energy
                           : l2_params_.read_energy;
    if (r2.hit) {
        out.l2_hit = true;
        return out;
    }

    // --- L3 -----------------------------------------------------------
    CacheAccessResult r3 = l3_->access(addr, is_write);
    out.latency += is_write ? l3_params_.write_latency
                            : l3_params_.read_latency;
    out.energy += is_write ? l3_params_.write_energy
                           : l3_params_.read_energy;
    if (rm_bank_) {
        ShiftCost shift =
            rm_bank_->accessFrame(r3.frame_index, now);
        // Pooled codewords fetch their shared redundancy region on
        // every write and, unless the domain reads two-tier, on
        // every read (the frequent EDC-clean case skips it).
        const ProtectionDomain &pd =
            rm_bank_->domainFor(r3.frame_index);
        if (pd.codeword_frames > 1 && (is_write || !pd.two_tier)) {
            ShiftCost red =
                rm_bank_->accessRedundancy(r3.frame_index, now);
            shift.latency += red.latency;
            shift.energy += red.energy;
        }
        if (config_.llc_tech == MemTech::Racetrack) {
            out.latency += shift.latency;
            out.shift_cycles = shift.latency;
            out.energy += shift.energy;
        }
        // RacetrackIdeal: shifts tracked but free (Fig. 16 "ideal").
    }
    if (r2.writeback) {
        // L2 victim installs into L3 (off critical path, energy
        // plus a racetrack shift for its frame if applicable).
        CacheAccessResult wb = l3_->access(r2.victim_addr, true);
        out.energy += l3_params_.write_energy;
        if (rm_bank_) {
            ShiftCost shift =
                rm_bank_->accessFrame(wb.frame_index, now);
            // The install is a write: a pooled codeword always
            // updates its redundancy region.
            const ProtectionDomain &pd =
                rm_bank_->domainFor(wb.frame_index);
            if (pd.codeword_frames > 1) {
                ShiftCost red =
                    rm_bank_->accessRedundancy(wb.frame_index, now);
                shift.energy += red.energy;
            }
            if (config_.llc_tech == MemTech::Racetrack)
                out.energy += shift.energy;
        }
        if (wb.writeback) {
            ++dram_accesses_;
            dram_energy_ += dram_.access_energy;
        }
    }
    if (r3.hit) {
        out.l3_hit = true;
        return out;
    }

    // --- DRAM ---------------------------------------------------------
    out.dram_access = true;
    ++dram_accesses_;
    out.latency += dram_.access_latency;
    out.energy += dram_.access_energy;
    dram_energy_ += dram_.access_energy;
    if (r3.writeback) {
        ++dram_accesses_;
        dram_energy_ += dram_.access_energy;
        out.energy += dram_.access_energy;
    }
    return out;
}

} // namespace rtm
