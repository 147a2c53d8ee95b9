#include "reference.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.hh"

namespace rtm
{

namespace
{

bool
isPowerOfTwo(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // anonymous namespace

// --- RefCache: the seed division/modulo tag array --------------------

RefCache::RefCache(uint64_t capacity_bytes, int associativity,
                   int line_bytes)
    : capacity_(capacity_bytes), ways_(associativity),
      line_bytes_(line_bytes)
{
    if (ways_ < 1)
        rtm_fatal("cache needs at least one way");
    if (!isPowerOfTwo(static_cast<uint64_t>(line_bytes_)))
        rtm_fatal("line size must be a power of two");
    uint64_t lines = capacity_ / static_cast<uint64_t>(line_bytes_);
    if (lines == 0 || lines % static_cast<uint64_t>(ways_) != 0)
        rtm_fatal("capacity %llu not divisible into %d-way sets",
                  static_cast<unsigned long long>(capacity_), ways_);
    sets_ = lines / static_cast<uint64_t>(ways_);
    if (!isPowerOfTwo(sets_))
        rtm_fatal("set count must be a power of two");
    lines_.assign(lines, Line{});
}

uint64_t
RefCache::setOf(Addr addr) const
{
    return (addr / static_cast<uint64_t>(line_bytes_)) & (sets_ - 1);
}

Addr
RefCache::tagOf(Addr addr) const
{
    return addr / static_cast<uint64_t>(line_bytes_) / sets_;
}

Addr
RefCache::lineAddr(Addr tag, uint64_t set) const
{
    return (tag * sets_ + set) * static_cast<uint64_t>(line_bytes_);
}

RefCache::Line &
RefCache::line(uint64_t set, int way)
{
    return lines_[set * static_cast<uint64_t>(ways_) +
                  static_cast<uint64_t>(way)];
}

const RefCache::Line &
RefCache::line(uint64_t set, int way) const
{
    return lines_[set * static_cast<uint64_t>(ways_) +
                  static_cast<uint64_t>(way)];
}

bool
RefCache::contains(Addr addr) const
{
    uint64_t set = setOf(addr);
    Addr tag = tagOf(addr);
    for (int w = 0; w < ways_; ++w) {
        const Line &l = line(set, w);
        if (l.valid && l.tag == tag)
            return true;
    }
    return false;
}

CacheAccessResult
RefCache::access(Addr addr, bool is_write)
{
    ++tick_;
    uint64_t set = setOf(addr);
    Addr tag = tagOf(addr);
    CacheAccessResult res;

    if (is_write)
        ++stats_.writes;
    else
        ++stats_.reads;

    int victim = 0;
    bool victim_invalid = false;
    uint64_t oldest = UINT64_MAX;
    for (int w = 0; w < ways_; ++w) {
        Line &l = line(set, w);
        if (l.valid && l.tag == tag) {
            l.lru = tick_;
            if (is_write)
                l.dirty = true;
            res.hit = true;
            res.frame_index = set * static_cast<uint64_t>(ways_) +
                              static_cast<uint64_t>(w);
            return res;
        }
        if (!l.valid) {
            if (!victim_invalid) {
                victim = w;
                victim_invalid = true;
            }
        } else if (!victim_invalid && l.lru < oldest) {
            victim = w;
            oldest = l.lru;
        }
    }

    if (is_write)
        ++stats_.write_misses;
    else
        ++stats_.read_misses;

    Line &v = line(set, victim);
    if (v.valid && v.dirty) {
        res.writeback = true;
        res.victim_addr = lineAddr(v.tag, set);
        ++stats_.writebacks;
    }
    v.valid = true;
    v.dirty = is_write;
    v.tag = tag;
    v.lru = tick_;
    res.frame_index = set * static_cast<uint64_t>(ways_) +
                      static_cast<uint64_t>(victim);
    return res;
}

void
RefCache::flush()
{
    for (auto &l : lines_)
        l = Line{};
}

// --- RefWorkloadGenerator: the seed log/modulo stream ----------------

RefWorkloadGenerator::RefWorkloadGenerator(
    const WorkloadProfile &profile, int cores, uint64_t seed)
    : profile_(profile), cores_(cores), rng_(seed),
      run_addr_(static_cast<size_t>(cores), 0),
      run_left_(static_cast<size_t>(cores), 0)
{
    if (cores_ < 1)
        rtm_fatal("workload needs at least one core");
    if (profile_.working_set_bytes < kLineBytes * 16ull)
        rtm_fatal("working set too small");
}

Addr
RefWorkloadGenerator::pickLine(int core)
{
    uint64_t lines = profile_.working_set_bytes / kLineBytes;
    uint64_t private_lines = lines * 3 / 4 /
                             static_cast<uint64_t>(cores_);
    uint64_t shared_lines = lines - private_lines *
                            static_cast<uint64_t>(cores_);
    bool shared = rng_.bernoulli(0.25) && shared_lines > 0;
    uint64_t region_base =
        shared ? private_lines * static_cast<uint64_t>(cores_)
               : private_lines * static_cast<uint64_t>(core);
    uint64_t region_lines = shared ? shared_lines : private_lines;
    if (region_lines == 0) {
        region_base = 0;
        region_lines = lines;
    }

    uint64_t hot_lines = std::max<uint64_t>(
        1, static_cast<uint64_t>(
               static_cast<double>(region_lines) *
               profile_.hot_set_ratio));
    uint64_t idx;
    if (rng_.bernoulli(profile_.hot_fraction))
        idx = rng_.uniformInt(hot_lines);
    else
        idx = rng_.uniformInt(region_lines);
    return (region_base + idx) * kLineBytes;
}

MemRequest
RefWorkloadGenerator::next()
{
    int core = next_core_;
    next_core_ = (next_core_ + 1) % cores_;

    MemRequest req;
    req.core = core;
    req.is_write = rng_.bernoulli(profile_.write_ratio);
    double u = rng_.uniform();
    double gap = -profile_.mean_gap * std::log(1.0 - u);
    req.gap_instructions =
        static_cast<uint32_t>(std::min(gap, 1000.0));

    auto c = static_cast<size_t>(core);
    if (run_left_[c] > 0 &&
        rng_.bernoulli(profile_.sequential_prob)) {
        run_addr_[c] += kLineBytes;
        if (run_addr_[c] >= profile_.working_set_bytes)
            run_addr_[c] = 0;
        --run_left_[c];
    } else {
        run_addr_[c] = pickLine(core);
        run_left_[c] = static_cast<int>(rng_.uniformInt(16)) + 1;
    }
    req.addr = run_addr_[c];
    return req;
}

// --- ReferenceHierarchy ----------------------------------------------

ReferenceHierarchy::ReferenceHierarchy(const HierarchyConfig &config,
                                       const PositionErrorModel *model)
    : config_(config), l1_params_(l1Params()), l2_params_(l2Params()),
      l3_params_(l3For(config.llc_tech)), dram_(dramParams())
{
    if (config_.cores < 1)
        rtm_fatal("hierarchy needs at least one core");
    if (config_.capacity_divisor == 0)
        rtm_fatal("capacity divisor must be >= 1");
    l1_params_.capacity_bytes /= config_.capacity_divisor;
    l2_params_.capacity_bytes /= config_.capacity_divisor;
    l3_params_.capacity_bytes /= config_.capacity_divisor;
    for (int c = 0; c < config_.cores; ++c) {
        l1_.push_back(std::make_unique<RefCache>(
            l1_params_.capacity_bytes, kL1Ways, kLineBytes));
    }
    int clusters = (config_.cores + 1) / 2;
    for (int cl = 0; cl < clusters; ++cl) {
        l2_.push_back(std::make_unique<RefCache>(
            l2_params_.capacity_bytes, kL2Ways, kLineBytes));
    }
    l3_ = std::make_unique<RefCache>(l3_params_.capacity_bytes,
                                     kLlcWays, kLineBytes);

    if (config_.llc_tech == MemTech::Racetrack ||
        config_.llc_tech == MemTech::RacetrackIdeal) {
        if (!model)
            rtm_fatal("racetrack LLC needs a position-error model");
        RmBankConfig bank;
        bank.line_frames = l3_params_.capacity_bytes /
                           static_cast<uint64_t>(kLineBytes);
        bank.scheme = config_.scheme;
        bank.head_policy = config_.head_policy;
        bank.placement = config_.placement;
        // The whole point: every access re-plans and re-folds live.
        bank.use_plan_memo = false;
        rm_bank_ = std::make_unique<RmBank>(bank, model, l3_params_);
    }
}

double
ReferenceHierarchy::totalLeakageWatts() const
{
    double watts = l1_params_.leakage_watts *
                   static_cast<double>(config_.cores);
    watts += l2_params_.leakage_watts *
             static_cast<double>(l2_.size());
    watts += l3_params_.leakage_watts;
    return watts;
}

HierarchyAccess
ReferenceHierarchy::access(int core, Addr addr, bool is_write,
                           Cycles now)
{
    HierarchyAccess out;

    RefCache &l1c = *l1_[static_cast<size_t>(core)];
    CacheAccessResult r1 = l1c.access(addr, is_write);
    out.latency += is_write ? l1_params_.write_latency
                            : l1_params_.read_latency;
    out.energy += is_write ? l1_params_.write_energy
                           : l1_params_.read_energy;
    if (r1.hit) {
        out.l1_hit = true;
        return out;
    }
    RefCache &l2c = *l2_[static_cast<size_t>(core / 2)];
    if (r1.writeback) {
        l2c.access(r1.victim_addr, true);
        out.energy += l2_params_.write_energy;
    }

    CacheAccessResult r2 = l2c.access(addr, is_write);
    out.latency += is_write ? l2_params_.write_latency
                            : l2_params_.read_latency;
    out.energy += is_write ? l2_params_.write_energy
                           : l2_params_.read_energy;
    if (r2.hit) {
        out.l2_hit = true;
        return out;
    }

    CacheAccessResult r3 = l3_->access(addr, is_write);
    out.latency += is_write ? l3_params_.write_latency
                            : l3_params_.read_latency;
    out.energy += is_write ? l3_params_.write_energy
                           : l3_params_.read_energy;
    if (rm_bank_) {
        ShiftCost shift = rm_bank_->accessFrame(r3.frame_index, now);
        if (config_.llc_tech == MemTech::Racetrack) {
            out.latency += shift.latency;
            out.shift_cycles = shift.latency;
            out.energy += shift.energy;
        }
    }
    if (r2.writeback) {
        CacheAccessResult wb = l3_->access(r2.victim_addr, true);
        out.energy += l3_params_.write_energy;
        if (rm_bank_) {
            ShiftCost shift =
                rm_bank_->accessFrame(wb.frame_index, now);
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

// --- referenceSimulate -----------------------------------------------

SimResult
referenceSimulate(const WorkloadProfile &profile,
                  const SimConfig &config,
                  const PositionErrorModel *model)
{
    ReferenceHierarchy hierarchy(config.hierarchy, model);
    RefWorkloadGenerator gen(profile, config.hierarchy.cores,
                             config.seed);

    std::vector<Cycles> core_time(
        static_cast<size_t>(config.hierarchy.cores), 0);

    SimResult res;
    res.workload = profile.name;
    res.llc_tech = config.hierarchy.llc_tech;
    res.scheme = config.hierarchy.scheme;

    for (uint64_t i = 0; i < config.warmup_requests; ++i) {
        MemRequest req = gen.next();
        auto c = static_cast<size_t>(req.core);
        core_time[c] += req.gap_instructions;
        HierarchyAccess acc = hierarchy.access(
            req.core, req.addr, req.is_write, core_time[c]);
        core_time[c] += acc.latency;
    }

    uint64_t warm_l3_acc = hierarchy.l3().stats().accesses();
    uint64_t warm_l3_miss = hierarchy.l3().stats().misses();
    uint64_t warm_dram = hierarchy.dramAccesses();
    Joules warm_dram_energy = hierarchy.dramEnergy();
    RmBankStats warm_rm;
    if (hierarchy.rmBank())
        warm_rm = hierarchy.rmBank()->stats();
    std::vector<Cycles> start_time = core_time;

    Joules dynamic_energy = 0.0;
    for (uint64_t i = 0; i < config.mem_requests; ++i) {
        MemRequest req = gen.next();
        auto c = static_cast<size_t>(req.core);
        core_time[c] += req.gap_instructions;
        res.instructions += req.gap_instructions + 1;
        ++res.mem_ops;
        HierarchyAccess acc = hierarchy.access(
            req.core, req.addr, req.is_write, core_time[c]);
        core_time[c] += acc.latency;
        dynamic_energy += acc.energy;
    }

    Cycles max_elapsed = 0;
    for (size_t c = 0; c < core_time.size(); ++c)
        max_elapsed = std::max(max_elapsed,
                               core_time[c] - start_time[c]);
    res.cycles = max_elapsed;
    res.seconds = cyclesToSeconds(res.cycles);

    res.cache_dynamic_energy = dynamic_energy;
    res.dram_energy = hierarchy.dramEnergy() - warm_dram_energy;
    res.leakage_energy = hierarchy.totalLeakageWatts() * res.seconds;

    res.llc_accesses = hierarchy.l3().stats().accesses() -
                       warm_l3_acc;
    res.llc_misses = hierarchy.l3().stats().misses() - warm_l3_miss;
    res.dram_accesses = hierarchy.dramAccesses() - warm_dram;

    if (const RmBank *bank = hierarchy.rmBank()) {
        const RmBankStats &s = bank->stats();
        res.shift_ops = s.shift_ops - warm_rm.shift_ops;
        res.shift_steps = s.shift_steps - warm_rm.shift_steps;
        res.shift_cycles = s.shift_cycles - warm_rm.shift_cycles;
        res.llc_shift_energy = s.shift_energy - warm_rm.shift_energy;

        MttfAccumulator rel = s.reliability;
        MttfAccumulator warm_rel = warm_rm.reliability;
        double sdc = rel.expectedSdc() - warm_rel.expectedSdc();
        double due = rel.expectedDue() - warm_rel.expectedDue();
        res.sdc_mttf = sdc > 0.0
                           ? res.seconds / sdc
                           : std::numeric_limits<double>::infinity();
        res.due_mttf = due > 0.0
                           ? res.seconds / due
                           : std::numeric_limits<double>::infinity();
    } else {
        res.sdc_mttf = std::numeric_limits<double>::infinity();
        res.due_mttf = std::numeric_limits<double>::infinity();
    }
    return res;
}

} // namespace rtm
