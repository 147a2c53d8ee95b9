#include "system.hh"

#include <algorithm>
#include <optional>
#include <type_traits>

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

// --- front-end log ---------------------------------------------------

namespace
{

uint64_t
ceilDiv(uint64_t a, uint64_t b)
{
    return (a + b - 1) / b;
}

} // anonymous namespace

ChunkPlan::ChunkPlan(const SimConfig &config)
    : warmup(config.warmup_requests), requests(config.mem_requests),
      warmup_chunks(ceilDiv(warmup, kChunkRequests)),
      chunks(warmup_chunks + ceilDiv(requests, kChunkRequests))
{
}

size_t
ChunkPlan::size(size_t k) const
{
    const bool warm = k < warmup_chunks;
    const uint64_t phase = warm ? warmup : requests;
    const uint64_t first = (warm ? k : k - warmup_chunks) * kChunkRequests;
    return static_cast<size_t>(std::min(kChunkRequests, phase - first));
}

FrontEndLog::FrontEndLog(const SimConfig &config, size_t consumers)
    : geometry_(config.hierarchy), seed_(config.seed), plan_(config),
      consumers_(consumers)
{
    if (consumers < 2)
        rtm_panic("front-end log: %zu consumers; a lone run keeps its "
                  "own L1/L2", consumers);
}

bool
FrontEndLog::fits(const SimConfig &config) const
{
    return config.hierarchy.cores == geometry_.cores &&
           config.hierarchy.capacity_divisor ==
               geometry_.capacity_divisor &&
           config.seed == seed_ &&
           config.warmup_requests == plan_.warmup &&
           config.mem_requests == plan_.requests;
}

const FrontEndChunk &
FrontEndLog::chunk(size_t k, const MemRequest *requests)
{
    if (k >= built_.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> lock(mutex_);
        const size_t built = built_.load(std::memory_order_relaxed);
        // Consumers read chunks in order, so the first unbuilt chunk
        // is the one this consumer needs.
        if (k > built)
            rtm_panic("front-end log: chunk %zu read before chunk %zu",
                      k, built);
        if (k == built)
            build(k, requests);
    }
    return chunk_[k];
}

void
FrontEndLog::build(size_t k, const MemRequest *requests) noexcept
{
    // The first build makes the L1/L2 and the chunk slots.
    if (!front_) {
        front_.emplace(geometry_);
        victim_tag_shift_ = front_->l2(0).tagShift();
        chunk_.resize(plan_.chunks);
        served_ = std::make_unique<std::atomic<size_t>[]>(plan_.chunks);
    }
    FrontEndChunk &out = chunk_[k];
    const size_t n = plan_.size(k);
    out.bits.assign((n + 1) / 2, 0);
    for (size_t j = 0; j < n; ++j) {
        const MemRequest &req = requests[j];
        Addr victim = 0;
        const uint8_t bits =
            front_->access(req.core, req.addr, req.is_write, &victim);
        out.record(j, bits, victim, victim_tag_shift_);
    }
    out.victims.shrink_to_fit();
    built_.store(k + 1, std::memory_order_release);
}

void
FrontEndLog::served(size_t k)
{
    if (served_[k].fetch_add(1, std::memory_order_acq_rel) + 1 ==
        consumers_)
        chunk_[k] = FrontEndChunk();
}

void
FrontEndLog::exportTelemetry(Telemetry &sink) const
{
    if (front_)
        front_->exportTelemetry(sink);
    else
        FrontEnd(geometry_).exportTelemetry(sink);
}

void
FrontEndLog::release()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (++released_ < consumers_)
        return;
    front_.reset();
    std::vector<FrontEndChunk>().swap(chunk_);
    served_.reset();
}

// --- simulation loop -------------------------------------------------

namespace
{

/**
 * Core simulation loop shared by the synthetic and trace-replay
 * front-ends: `next` yields the request stream.
 *
 * The loop serves the stream one ChunkPlan chunk at a time. It draws
 * the chunk's requests into a buffer, then takes their front-end
 * outcomes from the row's FrontEndLog (`log`), which the first run
 * to ask builds from these requests, or, with no log, from a private
 * L1/L2 run inline. This run's back end (L3, racetrack bank, DRAM)
 * then serves each outcome. Which run builds a chunk changes no
 * result: every run sharing a log draws the same requests.
 *
 * Before request j is served, the L3 tag and recency words that
 * request j+1 of the same chunk will look up are prefetched, so the
 * (mostly missing) LLC set load overlaps request j's work; a logged
 * outcome that stays in L1/L2 skips the prefetch. The lookahead stays
 * inside a chunk: a chunk's first request is not prefetched.
 */
template <typename NextFn>
SimResult
runSim(const std::string &name, const SimConfig &config,
       const PositionErrorModel *model, FrontEndLog *log, NextFn &&next)
{
    if (log && !log->fits(config))
        rtm_panic("%s: the front-end log belongs to another stream",
                  name.c_str());
    HierarchyConfig hcfg = config.hierarchy;
    if (config.telemetry)
        hcfg.telemetry = config.telemetry;
    // A profiling pass counts under any placement kind: an empty
    // profile would silently select online hot-center downstream.
    if (config.frame_profile_out)
        hcfg.placement.track_counts = true;
    BackEnd back(hcfg, model);
    std::optional<FrontEnd> own;
    if (!log)
        own.emplace(config.hierarchy);
    const ChunkPlan plan(config);
    std::vector<MemRequest> requests(ChunkPlan::kChunkRequests);

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

    // Serve chunk k; false when the stop flag tripped. Warmup
    // requests touch the caches without accounting.
    auto serveChunk = [&](auto measured, size_t k) {
        if (config.stop && config.stop->poll())
            return false;
        const size_t n = plan.size(k);
        for (size_t j = 0; j < n; ++j)
            requests[j] = next();
        const FrontEndChunk *in =
            log ? &log->chunk(k, requests.data()) : nullptr;
        const int tag_shift = log ? log->victimTagShift() : 0;
        size_t victims = 0;
        size_t wide = 0;
        for (size_t j = 0; j < n; ++j) {
            const MemRequest &req = requests[j];
            if (j + 1 < n && (!in || (in->outcome(j + 1) & kL2Miss)))
                back.prefetchLlc(requests[j + 1].addr);
            Addr victim = 0;
            uint8_t bits;
            if (in) {
                bits = in->outcome(j);
                if (bits & kL2Writeback)
                    victim = in->victim(victims++, &wide, req.addr,
                                        tag_shift);
            } else {
                bits = own->access(req.core, req.addr, req.is_write,
                                   &victim);
            }
            auto c = static_cast<size_t>(req.core);
            core_time[c] += req.gap_instructions;
            if constexpr (decltype(measured)::value) {
                res.instructions += req.gap_instructions + 1;
                ++res.mem_ops;
            }
            HierarchyAccess acc = back.serve(bits, req.addr, req.is_write,
                                             victim, core_time[c]);
            core_time[c] += acc.latency;
            if constexpr (decltype(measured)::value) {
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
        }
        if (log)
            log->served(k);
        return true;
    };

    size_t k = 0;
    for (; k < plan.warmup_chunks; ++k)
        if (!serveChunk(std::false_type{}, k))
            return res;

    // Snapshot counters after warmup so deltas are measured.
    uint64_t warm_l3_acc = back.l3().stats().accesses();
    uint64_t warm_l3_miss = back.l3().stats().misses();
    uint64_t warm_dram = back.dramAccesses();
    Joules warm_dram_energy = back.dramEnergy();
    RmBankStats warm_rm;
    if (back.rmBank())
        warm_rm = back.rmBank()->stats();
    std::vector<Cycles> start_time = core_time;

    for (; k < plan.chunks; ++k)
        if (!serveChunk(std::true_type{}, k))
            return res;
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
    res.dram_energy = back.dramEnergy() - warm_dram_energy;
    res.leakage_energy = back.totalLeakageWatts() * res.seconds;

    res.llc_accesses = back.l3().stats().accesses() - warm_l3_acc;
    res.llc_misses = back.l3().stats().misses() - warm_l3_miss;
    res.dram_accesses = back.dramAccesses() - warm_dram;

    if (const RmBank *bank = back.rmBank()) {
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
        if (log)
            log->exportTelemetry(*t);
        else
            own->exportTelemetry(*t);
        back.exportTelemetry(*t);
    }
    if (config.frame_profile_out) {
        config.frame_profile_out->clear();
        if (const RmBank *bank = back.rmBank())
            *config.frame_profile_out = bank->frameAccessCounts();
    }
    return res;
}

} // anonymous namespace

SimResult
simulate(const WorkloadProfile &profile, const SimConfig &config,
         const PositionErrorModel *model, FrontEndLog *row)
{
    WorkloadGenerator gen(profile, config.hierarchy.cores,
                          config.seed);
    return runSim(profile.name, config, model, row,
                  [&gen] { return gen.next(); });
}

SimResult
simulateTrace(const std::string &name,
              const std::vector<MemRequest> &requests,
              const SimConfig &config,
              const PositionErrorModel *model, FrontEndLog *row)
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
    return runSim(name, config, model, row, next);
}

} // namespace rtm
