#include "hierarchy.hh"

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
    const uint64_t min_bytes = kLineBytes * 16;
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
        {"L1", l1_bytes, kL1Ways},
        {"L2", l2Params().capacity_bytes / d, kL2Ways},
        {"L3", l3For(config.llc_tech).capacity_bytes / d, kLlcWays},
    };
    for (const auto &level : levels) {
        const std::string err =
            cacheGeometryError(level.bytes, level.ways, kLineBytes);
        if (!err.empty())
            return std::string(level.name) + " under capacity divisor " +
                   std::to_string(d) + ": " + err;
    }
    return "";
}

namespace
{

/** `config`, after refusing it if it cannot be built. */
const HierarchyConfig &
checkedGeometry(const HierarchyConfig &config)
{
    const std::string err = hierarchyGeometryError(config);
    if (!err.empty())
        rtm_fatal("%s", err.c_str());
    return config;
}

/** `params` with its capacity divided by `divisor`. */
TechParams
dividedParams(TechParams params, uint64_t divisor)
{
    params.capacity_bytes /= divisor;
    return params;
}

/** Add one level's hit/miss/writeback counters to `sink`. */
void
exportLevel(Telemetry &sink, const char *name, const CacheStats &s)
{
    std::string prefix = std::string("mem.") + name + ".";
    sink.counter(prefix + "accesses").add(s.accesses());
    sink.counter(prefix + "hits").add(s.accesses() - s.misses());
    sink.counter(prefix + "misses").add(s.misses());
    sink.counter(prefix + "writebacks").add(s.writebacks);
}

/** The counters of `caches` summed. */
CacheStats
sumStats(const std::vector<Cache> &caches)
{
    CacheStats sum;
    for (const Cache &c : caches) {
        const CacheStats &s = c.stats();
        sum.reads += s.reads;
        sum.writes += s.writes;
        sum.read_misses += s.read_misses;
        sum.write_misses += s.write_misses;
        sum.writebacks += s.writebacks;
    }
    return sum;
}

} // anonymous namespace

// --- front end -------------------------------------------------------

FrontEnd::FrontEnd(const HierarchyConfig &config)
    : cores_(checkedGeometry(config).cores)
{
    const uint64_t d = config.capacity_divisor;
    for (int c = 0; c < cores_; ++c)
        l1_.emplace_back(l1Params().capacity_bytes / d, kL1Ways);
    for (int cl = 0; cl < (cores_ + 1) / 2; ++cl)
        l2_.emplace_back(l2Params().capacity_bytes / d, kL2Ways);
}

const Cache &
FrontEnd::l1(int core) const
{
    if (core < 0 || core >= cores_)
        rtm_panic("core %d out of range", core);
    return l1_[static_cast<size_t>(core)];
}

const Cache &
FrontEnd::l2(int cluster) const
{
    if (cluster < 0 || cluster >= static_cast<int>(l2_.size()))
        rtm_panic("cluster %d out of range", cluster);
    return l2_[static_cast<size_t>(cluster)];
}

void
FrontEnd::exportTelemetry(Telemetry &sink) const
{
    exportLevel(sink, "l1", sumStats(l1_));
    exportLevel(sink, "l2", sumStats(l2_));
    sink.counter("mem.l2.dropped_writebacks").add(dropped_writebacks_);
}

// --- back end --------------------------------------------------------

BackEnd::BackEnd(const HierarchyConfig &config,
                 const PositionErrorModel *model)
    : config_(checkedGeometry(config)), l1_params_(l1Params()),
      l2_params_(l2Params()),
      l3_params_(dividedParams(l3For(config.llc_tech),
                               config.capacity_divisor)),
      dram_(dramParams()), l3_(l3_params_.capacity_bytes, kLlcWays)
{
    if (config_.llc_tech == MemTech::Racetrack ||
        config_.llc_tech == MemTech::RacetrackIdeal) {
        if (!model)
            rtm_fatal("racetrack LLC needs a position-error model");
        RmBankConfig bank;
        bank.line_frames = l3_params_.capacity_bytes / kLineBytes;
        bank.scheme = config_.scheme;
        // A uniform scheme override replaces the bank's base scheme
        // outright (timing and planning included); region-scoped
        // overrides stay classification-only.
        const ProtectionDomain &uniform = config_.protection.uniform;
        if (uniform.has_scheme)
            bank.scheme = uniform.scheme;
        bank.protection = config_.protection;
        bank.head_policy = config_.head_policy;
        bank.placement = config_.placement;
        bank.telemetry = config_.telemetry;
        rm_bank_ = std::make_unique<RmBank>(bank, model, l3_params_);
    }
}

void
BackEnd::exportTelemetry(Telemetry &sink) const
{
    exportLevel(sink, "l3", l3_.stats());
    sink.counter("mem.dram.accesses").add(dram_accesses_);
    sink.gauge("mem.dram.energy_joules").set(dram_energy_);
}

double
BackEnd::totalLeakageWatts() const
{
    double watts = l1_params_.leakage_watts *
                   static_cast<double>(config_.cores);
    watts += l2_params_.leakage_watts *
             static_cast<double>((config_.cores + 1) / 2);
    watts += l3_params_.leakage_watts;
    return watts;
}

void
BackEnd::serveLlc(HierarchyAccess &out, uint8_t bits, Addr addr,
                  bool is_write, Addr l2_victim, Cycles now)
{
    // --- L3 -----------------------------------------------------------
    CacheAccessResult r3 = l3_.access(addr, is_write);
    out.latency += is_write ? l3_params_.write_latency
                            : l3_params_.read_latency;
    out.energy += is_write ? l3_params_.write_energy
                           : l3_params_.read_energy;
    if (rm_bank_) {
        // The data frame plus, for a pooled codeword, its shared
        // redundancy region.
        const ShiftCost shift =
            rm_bank_->accessLine(r3.frame_index, is_write, now);
        if (config_.llc_tech == MemTech::Racetrack) {
            out.latency += shift.latency;
            out.shift_cycles = shift.latency;
            out.energy += shift.energy;
        }
        // RacetrackIdeal: shifts tracked but free (Fig. 16 "ideal").
    }
    if (bits & kL2Writeback) {
        // L2 victim installs into L3 (off critical path, energy
        // plus a racetrack shift for its frame if applicable).
        CacheAccessResult wb = l3_.access(l2_victim, true);
        out.energy += l3_params_.write_energy;
        if (rm_bank_) {
            const ShiftCost shift =
                rm_bank_->accessLine(wb.frame_index, true, now);
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
        return;
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
}

// --- whole hierarchy -------------------------------------------------

Hierarchy::Hierarchy(const HierarchyConfig &config,
                     const PositionErrorModel *model)
    : front_(config), back_(config, model)
{
}

} // namespace rtm
