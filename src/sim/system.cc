#include "system.hh"

#include <algorithm>

#include "util/logging.hh"

namespace rtm
{

double
SimResult::ipc() const
{
    if (cycles == 0)
        return 0.0;
    return static_cast<double>(instructions) /
           static_cast<double>(cycles);
}

double
SimResult::shiftsPerAccess() const
{
    if (llc_accesses == 0)
        return 0.0;
    return static_cast<double>(shift_steps) /
           static_cast<double>(llc_accesses);
}

namespace
{

/**
 * Core simulation loop shared by the synthetic and trace-replay
 * front-ends: `next` yields the request stream.
 *
 * The loop runs one request ahead: request i+1 is drawn, and the L3
 * tag and recency words it will look up are prefetched, before
 * request i is served, so the (mostly missing) LLC set load overlaps
 * request i's work. The served sequence is unchanged; the stream is
 * merely asked for one request more than is served.
 */
template <typename NextFn>
SimResult
runSim(const std::string &name, const SimConfig &config,
       const PositionErrorModel *model, NextFn &&next)
{
    HierarchyConfig hcfg = config.hierarchy;
    if (config.telemetry)
        hcfg.telemetry = config.telemetry;
    // A profiling pass counts under any placement kind: an empty
    // profile would silently select online hot-center downstream.
    if (config.frame_profile_out)
        hcfg.placement.track_counts = true;
    Hierarchy hierarchy(hcfg, model);

    // Per-core local time; the simulator interleaves requests
    // round-robin and advances each core independently, then takes
    // the max as wall-clock (barrier at the end, like a parallel
    // phase).
    std::vector<Cycles> core_time(
        static_cast<size_t>(config.hierarchy.cores), 0);

    SimResult res;
    res.workload = name;
    res.llc_tech = config.hierarchy.llc_tech;
    res.scheme = config.hierarchy.scheme;

    // Cooperative cancellation: poll the stop flag at a coarse
    // stride so the hot loop pays one predictable branch per block.
    constexpr uint64_t kStopPollStride = 1024;

    // One-request lookahead (see above): `ahead` is the request the
    // next iteration serves.
    MemRequest ahead = next();
    hierarchy.prefetchLlc(ahead.addr);
    auto advance = [&]() {
        const MemRequest req = ahead;
        ahead = next();
        hierarchy.prefetchLlc(ahead.addr);
        return req;
    };

    // Warmup: touch caches without accounting.
    for (uint64_t i = 0; i < config.warmup_requests; ++i) {
        if (config.stop && i % kStopPollStride == 0 &&
            config.stop->poll())
            return res;
        const MemRequest req = advance();
        auto c = static_cast<size_t>(req.core);
        core_time[c] += req.gap_instructions;
        HierarchyAccess acc = hierarchy.access(
            req.core, req.addr, req.is_write, core_time[c]);
        core_time[c] += acc.latency;
    }

    // Snapshot counters after warmup so deltas are measured.
    uint64_t warm_l3_acc = hierarchy.l3().stats().accesses();
    uint64_t warm_l3_miss = hierarchy.l3().stats().misses();
    uint64_t warm_dram = hierarchy.dramAccesses();
    Joules warm_dram_energy = hierarchy.dramEnergy();
    RmBankStats warm_rm;
    if (hierarchy.rmBank())
        warm_rm = hierarchy.rmBank()->stats();
    std::vector<Cycles> start_time = core_time;

    // Telemetry hooks on the measured loop: an access-latency
    // histogram and LLC miss-burst events. All guarded on the null
    // handle, and they only *read* the access outcome.
    Telemetry *t = config.telemetry.get();
    LatencyHistogram *lat_hist =
        t ? &t->histogram("sim.access_latency_cycles",
                          powerOfTwoEdges(65536.0))
          : nullptr;
    constexpr uint64_t kBurstLen = 8; //!< misses before "burst"
    uint64_t miss_run = 0;
    Cycles burst_end = 0;

    Joules dynamic_energy = 0.0;
    for (uint64_t i = 0; i < config.mem_requests; ++i) {
        if (config.stop && i % kStopPollStride == 0 &&
            config.stop->poll())
            return res;
        const MemRequest req = advance();
        auto c = static_cast<size_t>(req.core);
        core_time[c] += req.gap_instructions;
        res.instructions += req.gap_instructions + 1;
        ++res.mem_ops;
        HierarchyAccess acc = hierarchy.access(
            req.core, req.addr, req.is_write, core_time[c]);
        core_time[c] += acc.latency;
        dynamic_energy += acc.energy;
        if (t) {
            lat_hist->record(static_cast<double>(acc.latency));
            if (acc.dram_access) {
                ++miss_run;
                burst_end = core_time[c];
            } else if (miss_run > 0) {
                if (miss_run >= kBurstLen)
                    t->event(EventKind::CacheMissBurst, "llc",
                             burst_end,
                             static_cast<double>(miss_run));
                miss_run = 0;
            }
        }
    }
    if (t && miss_run >= kBurstLen)
        t->event(EventKind::CacheMissBurst, "llc", burst_end,
                 static_cast<double>(miss_run));

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
        res.migrations = s.migrations - warm_rm.migrations;
        res.migration_steps =
            s.migration_steps - warm_rm.migration_steps;
        res.redundancy_accesses =
            s.redundancy_accesses - warm_rm.redundancy_accesses;
        res.redundancy_steps =
            s.redundancy_steps - warm_rm.redundancy_steps;

        // Reliability: expected events accumulated during the
        // measured phase over the measured time span.
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

    if (t) {
        // Measured-phase counters, exported from the final SimResult
        // so the two views can never disagree. The mem.* counters
        // from exportTelemetry cover the whole run (warmup
        // included).
        t->counter("sim.requests").add(res.mem_ops);
        t->counter("sim.instructions").add(res.instructions);
        t->counter("sim.cycles").add(res.cycles);
        t->counter("sim.llc.accesses").add(res.llc_accesses);
        t->counter("sim.llc.misses").add(res.llc_misses);
        t->counter("sim.dram.accesses").add(res.dram_accesses);
        t->counter("sim.rm.shift_ops").add(res.shift_ops);
        t->counter("sim.rm.shift_steps").add(res.shift_steps);
        t->counter("sim.rm.shift_cycles").add(res.shift_cycles);
        t->counter("sim.rm.migrations").add(res.migrations);
        t->counter("sim.rm.migration_steps")
            .add(res.migration_steps);
        t->gauge("sim.ipc").set(res.ipc());
        t->gauge("sim.seconds").set(res.seconds);
        hierarchy.exportTelemetry(*t);
    }
    if (config.frame_profile_out) {
        config.frame_profile_out->clear();
        if (const RmBank *bank = hierarchy.rmBank())
            *config.frame_profile_out = bank->frameAccessCounts();
    }
    return res;
}

} // anonymous namespace

SimResult
simulate(const WorkloadProfile &profile, const SimConfig &config,
         const PositionErrorModel *model)
{
    WorkloadGenerator gen(profile, config.hierarchy.cores,
                          config.seed);
    return runSim(profile.name, config, model,
                  [&gen] { return gen.next(); });
}

SimResult
simulateTrace(const std::string &name,
              const std::vector<MemRequest> &requests,
              const SimConfig &config,
              const PositionErrorModel *model)
{
    if (requests.empty())
        rtm_fatal("simulateTrace: empty trace");
    // Core ids index per-core state; refuse a stray one up front.
    for (size_t i = 0; i < requests.size(); ++i) {
        const int core = requests[i].core;
        if (core < 0 || core >= config.hierarchy.cores)
            rtm_fatal("simulateTrace: request %zu names core %d, "
                      "the hierarchy has %d cores",
                      i, core, config.hierarchy.cores);
    }
    size_t pos = 0;
    // Return by reference and wrap with a branch: no per-request
    // MemRequest copy and no modulo on the hot path.
    auto next = [&requests, &pos]() -> const MemRequest & {
        const MemRequest &r = requests[pos];
        if (++pos == requests.size())
            pos = 0;
        return r;
    };
    return runSim(name, config, model, next);
}

} // namespace rtm
