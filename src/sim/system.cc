#include "system.hh"

#include <algorithm>
#include <cstring>
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

/**
 * The layout of one chunk record (FrontEndLog): a header of counts,
 * then the arrays below, widest first. Fields are read and written
 * with memcpy, since a buffer is reused under other layouts.
 */
struct ChunkRecord
{
    static constexpr uint8_t kWideGap = UINT8_MAX;
    static constexpr uint32_t kWideLine = UINT32_MAX;
    static constexpr uint16_t kWideVictim = UINT16_MAX;
    static constexpr int kWriteShift = 4;
    static constexpr int kCoreShift = 5;
    static constexpr int kMaxCores = 1 << (8 - kCoreShift);

    struct Header
    {
        uint32_t misses = 0;       //!< L2 misses: one line each
        uint32_t writebacks = 0;   //!< L2 writebacks: one tag each
        uint32_t wide_gaps = 0;    //!< gaps of kWideGap and up
        uint32_t wide_lines = 0;   //!< L2-miss addresses not in 32 bits
        uint32_t wide_victims = 0; //!< victims whose tag is too wide
    };

    Header counts;
    std::byte *wide_lines;   //!< Addr each
    std::byte *wide_victims; //!< Addr each
    std::byte *lines;        //!< uint32_t line number per L2 miss
    std::byte *wide_gaps;    //!< uint32_t each
    std::byte *victims;      //!< uint16_t L2 tag per L2 writeback
    std::byte *head;         //!< outcome nibble | write bit | core
    std::byte *gaps;         //!< uint8_t each

    /** The record of `n` requests at `base`, whose header holds its
     *  counts. */
    ChunkRecord(std::byte *base, size_t n)
    {
        std::memcpy(&counts, base, sizeof(Header));
        std::byte *p = base + sizeof(Header);
        auto take = [&p](std::byte *&array, size_t count, size_t size) {
            array = p;
            p += count * size;
        };
        take(wide_lines, counts.wide_lines, sizeof(Addr));
        take(wide_victims, counts.wide_victims, sizeof(Addr));
        take(lines, counts.misses, sizeof(uint32_t));
        take(wide_gaps, counts.wide_gaps, sizeof(uint32_t));
        take(victims, counts.writebacks, sizeof(uint16_t));
        take(head, n, 1);
        take(gaps, n, 1);
    }

    /** Bytes of a record of `n` requests with counts `h` (the
     *  arrays the constructor lays out). */
    static constexpr size_t bytes(const Header &h, size_t n)
    {
        return sizeof(Header) +
               (size_t{h.wide_lines} + h.wide_victims) * sizeof(Addr) +
               (size_t{h.misses} + h.wide_gaps) * sizeof(uint32_t) +
               h.writebacks * sizeof(uint16_t) + 2 * n;
    }

    static bool wideLine(Addr addr)
    {
        return addr % kLineBytes != 0 || addr / kLineBytes >= kWideLine;
    }

    /** Element i of an array of T. */
    template <class T>
    static T get(const std::byte *array, size_t i)
    {
        T v;
        std::memcpy(&v, array + i * sizeof(T), sizeof(T));
        return v;
    }

    template <class T>
    static void put(std::byte *array, size_t i, T v)
    {
        std::memcpy(array + i * sizeof(T), &v, sizeof(T));
    }
};

/**
 * Bytes of every record buffer: the record of a full chunk whose
 * every request misses L2 and writes back, without escapes. Buffers
 * of one size fit any record but a rare escape-heavy one, so the pool
 * always reuses them; sized to each record, they are freed and
 * reallocated as rows of small and large records alternate, which
 * cost ~1 MiB of peak RSS on the llc-sweep matrix.
 */
constexpr size_t kRecordBufferBytes = ChunkRecord::bytes(
    {ChunkPlan::kChunkRequests, ChunkPlan::kChunkRequests},
    ChunkPlan::kChunkRequests);

/** The counts of the record of `batch`'s first `n` requests. */
ChunkRecord::Header
recordCounts(const FrontEndBatch &batch, size_t n, int tag_shift)
{
    ChunkRecord::Header h;
    for (size_t j = 0; j < n; ++j) {
        const uint8_t bits = batch.bits[j];
        h.wide_gaps += batch.requests[j].gap_instructions >=
                       ChunkRecord::kWideGap;
        if (!(bits & kL2Miss))
            continue;
        ++h.misses;
        h.wide_lines += ChunkRecord::wideLine(batch.requests[j].addr);
        if (bits & kL2Writeback) {
            ++h.writebacks;
            h.wide_victims += (batch.victims[j] >> tag_shift) >=
                              ChunkRecord::kWideVictim;
        }
    }
    return h;
}

/** Write at `base` the record of `batch`'s first `n` requests,
 *  whose counts are `h`. */
void
encodeRecord(const FrontEndBatch &batch, size_t n, int tag_shift,
             const ChunkRecord::Header &h, std::byte *base)
{
    using R = ChunkRecord;
    std::memcpy(base, &h, sizeof(h));
    const R rec(base, n);
    size_t m = 0, wb = 0, wg = 0, wl = 0, wv = 0;
    for (size_t j = 0; j < n; ++j) {
        const MemRequest &req = batch.requests[j];
        const uint8_t bits = batch.bits[j];
        R::put(rec.head, j,
               static_cast<uint8_t>(bits |
                                    req.is_write << R::kWriteShift |
                                    req.core << R::kCoreShift));
        const bool wide_gap = req.gap_instructions >= R::kWideGap;
        R::put(rec.gaps, j,
               wide_gap ? R::kWideGap
                        : static_cast<uint8_t>(req.gap_instructions));
        if (wide_gap)
            R::put(rec.wide_gaps, wg++, req.gap_instructions);
        if (!(bits & kL2Miss))
            continue;
        if (R::wideLine(req.addr)) {
            R::put(rec.lines, m++, R::kWideLine);
            R::put(rec.wide_lines, wl++, req.addr);
        } else {
            R::put(rec.lines, m++,
                   static_cast<uint32_t>(req.addr / kLineBytes));
        }
        if (bits & kL2Writeback) {
            const Addr victim = batch.victims[j];
            const Addr tag = victim >> tag_shift;
            if (tag >= R::kWideVictim) {
                R::put(rec.victims, wb++, R::kWideVictim);
                R::put(rec.wide_victims, wv++, victim);
            } else {
                R::put(rec.victims, wb++, static_cast<uint16_t>(tag));
            }
        }
    }
}

/** Read the `n` requests of the record at `base` into `out`. */
void
decodeRecord(std::byte *base, size_t n, int tag_shift,
             FrontEndBatch &out)
{
    using R = ChunkRecord;
    const R rec(base, n);
    // An L2 victim lies in its request's L2 set: its tag and the
    // request's set bits make its line.
    const Addr set_bits = (Addr{1} << tag_shift) - kLineBytes;
    size_t m = 0, wb = 0, wg = 0, wl = 0, wv = 0;
    for (size_t j = 0; j < n; ++j) {
        MemRequest &req = out.requests[j];
        const auto head = R::get<uint8_t>(rec.head, j);
        const uint8_t bits = head & 0xF;
        out.bits[j] = bits;
        req.is_write = (head >> R::kWriteShift) & 1;
        req.core = head >> R::kCoreShift;
        const auto gap = R::get<uint8_t>(rec.gaps, j);
        req.gap_instructions =
            gap < R::kWideGap ? gap : R::get<uint32_t>(rec.wide_gaps, wg++);
        if (!(bits & kL2Miss)) {
            req.addr = 0;
            continue;
        }
        const auto line = R::get<uint32_t>(rec.lines, m++);
        req.addr = line != R::kWideLine
                       ? Addr{line} * kLineBytes
                       : R::get<Addr>(rec.wide_lines, wl++);
        if (bits & kL2Writeback) {
            const auto tag = R::get<uint16_t>(rec.victims, wb++);
            out.victims[j] =
                tag != R::kWideVictim
                    ? (Addr{tag} << tag_shift) | (req.addr & set_bits)
                    : R::get<Addr>(rec.wide_victims, wv++);
        }
    }
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

ChunkBuffer
ChunkPool::take(size_t bytes)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (free_.empty() || free_.back().capacity < bytes)
        return ChunkBuffer{std::make_unique_for_overwrite<std::byte[]>(bytes),
                           bytes};
    ChunkBuffer out = std::move(free_.back());
    free_.pop_back();
    return out;
}

void
ChunkPool::give(ChunkBuffer buffer)
{
    std::lock_guard<std::mutex> lock(mutex_);
    free_.push_back(std::move(buffer));
}

FrontEndLog::FrontEndLog(const SimConfig &config, RequestStream stream,
                         size_t consumers, ChunkPool &pool)
    : geometry_(config.hierarchy), plan_(config),
      stream_(std::move(stream)), consumers_(consumers), pool_(pool)
{
    if (consumers < 2)
        rtm_panic("front-end log: %zu consumers; a lone run keeps its "
                  "own L1/L2", consumers);
    if (geometry_.cores > ChunkRecord::kMaxCores)
        rtm_panic("front-end log: %d cores; a record holds at most %d",
                  geometry_.cores, ChunkRecord::kMaxCores);
}

bool
FrontEndLog::fits(const SimConfig &config,
                  const RequestStream &stream) const
{
    return stream_ && stream.sameAs(*stream_) &&
           config.hierarchy.cores == geometry_.cores &&
           config.hierarchy.capacity_divisor ==
               geometry_.capacity_divisor &&
           config.warmup_requests == plan_.warmup &&
           config.mem_requests == plan_.requests;
}

void
FrontEndLog::chunk(size_t k, FrontEndBatch &out)
{
    bool drew = false;
    if (k >= built_.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> lock(mutex_);
        const size_t built = built_.load(std::memory_order_relaxed);
        // Consumers read chunks in order, so the first unbuilt chunk
        // is the one this consumer needs.
        if (k > built)
            rtm_panic("front-end log: chunk %zu read before chunk %zu",
                      k, built);
        // The builder serves what it drew, so `out` is filled.
        drew = k == built;
        if (drew)
            build(k, out);
    }
    if (!drew)
        decodeRecord(chunk_[k].bytes.get(), plan_.size(k),
                     victim_tag_shift_, out);
    served(k);
}

void
FrontEndLog::build(size_t k, FrontEndBatch &out) noexcept
{
    // The first build makes the L1/L2 and the chunk slots.
    if (!front_) {
        front_.emplace(geometry_);
        victim_tag_shift_ = front_->l2(0).tagShift();
        chunk_.resize(plan_.chunks);
        served_ = std::make_unique<std::atomic<size_t>[]>(plan_.chunks);
    }
    const size_t n = plan_.size(k);
    stream_->fill(out.requests, n);
    for (size_t j = 0; j < n; ++j) {
        const MemRequest &req = out.requests[j];
        out.bits[j] = front_->access(req.core, req.addr, req.is_write,
                                     &out.victims[j]);
    }
    const ChunkRecord::Header counts =
        recordCounts(out, n, victim_tag_shift_);
    chunk_[k] = pool_.take(std::max(ChunkRecord::bytes(counts, n),
                                    kRecordBufferBytes));
    encodeRecord(out, n, victim_tag_shift_, counts,
                 chunk_[k].bytes.get());
    built_.store(k + 1, std::memory_order_release);
}

void
FrontEndLog::served(size_t k)
{
    if (served_[k].fetch_add(1, std::memory_order_acq_rel) + 1 ==
        consumers_)
        pool_.give(std::move(chunk_[k]));
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
    stream_.reset();
    front_.reset();
    for (ChunkBuffer &buf : chunk_)
        if (buf.bytes)
            pool_.give(std::move(buf));
    std::vector<ChunkBuffer>().swap(chunk_);
    served_.reset();
}

// --- simulation loop -------------------------------------------------

namespace
{

/**
 * Core simulation loop shared by the synthetic and trace-replay
 * front-ends: `stream` yields the request stream.
 *
 * The loop serves the stream one ChunkPlan chunk at a time. With the
 * row's FrontEndLog (`log`) it takes both the chunk's requests and
 * their front-end outcomes from the log and never draws from
 * `stream`, which must match the log's; with no log it draws the
 * requests from `stream` and runs each through a private L1/L2 as it
 * serves it. This run's back end (L3, racetrack bank, DRAM) serves
 * each outcome. Which run builds a chunk changes no result: the log
 * alone draws the row's requests.
 *
 * Before request j is served, the L3 tag and recency words that
 * request j+1 of the same chunk will look up are prefetched, so the
 * (mostly missing) LLC set load overlaps request j's work; a logged
 * outcome that stays in L1/L2 skips the prefetch. The lookahead stays
 * inside a chunk: a chunk's first request is not prefetched.
 */
SimResult
runSim(const std::string &name, const SimConfig &config,
       const PositionErrorModel *model, FrontEndLog *log,
       RequestStream &stream)
{
    if (log && !log->fits(config, stream))
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
    const auto batch = std::make_unique<FrontEndBatch>();
    FrontEndBatch &in = *batch;

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
        if (log)
            log->chunk(k, in);
        else
            stream.fill(in.requests, n);
        for (size_t j = 0; j < n; ++j) {
            const MemRequest &req = in.requests[j];
            if (j + 1 < n && (own || (in.bits[j + 1] & kL2Miss)))
                back.prefetchLlc(in.requests[j + 1].addr);
            // A lone run's L1/L2 go request by request, beside the
            // back end: a separate pass over the chunk measured ~6 %
            // slower.
            if (own)
                in.bits[j] = own->access(req.core, req.addr, req.is_write,
                                         &in.victims[j]);
            auto c = static_cast<size_t>(req.core);
            core_time[c] += req.gap_instructions;
            if constexpr (decltype(measured)::value) {
                res.instructions += req.gap_instructions + 1;
                ++res.mem_ops;
            }
            HierarchyAccess acc =
                back.serve(in.bits[j], req.addr, req.is_write,
                           in.victims[j], core_time[c]);
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
    RequestStream stream(profile, config.hierarchy.cores, config.seed);
    return runSim(profile.name, config, model, row, stream);
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
    RequestStream stream(requests);
    return runSim(name, config, model, row, stream);
}

} // namespace rtm
