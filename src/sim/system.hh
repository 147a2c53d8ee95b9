/**
 * @file
 * Trace-driven system simulator (paper Sec. 6.1).
 *
 * Four in-order single-issue 2 GHz cores execute synthetic workload
 * streams: non-memory instructions retire one per cycle, memory
 * operations block their core for the hierarchy latency. The cores
 * advance loosely in lockstep (round-robin request interleave), which
 * captures what the evaluation needs: LLC access intensity, shift
 * distance/interval distributions, end-to-end execution time, and
 * energy.
 *
 * Outputs per run: execution time, per-level energy, shift statistics
 * and the reliability accumulators that Figs. 10-12 read.
 */

#ifndef RTM_SIM_SYSTEM_HH
#define RTM_SIM_SYSTEM_HH

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "device/error_model.hh"
#include "mem/hierarchy.hh"
#include "model/reliability.hh"
#include "trace/workload.hh"
#include "util/fields.hh"
#include "util/parallel.hh"
#include "util/units.hh"

namespace rtm
{

/** Result of one simulated workload run. */
struct SimResult
{
    std::string workload;
    MemTech llc_tech = MemTech::SRAM;
    Scheme scheme = Scheme::Baseline;

    uint64_t instructions = 0;
    uint64_t mem_ops = 0;
    Cycles cycles = 0;
    Seconds seconds = 0.0;

    // Energy breakdown (joules).
    Joules cache_dynamic_energy = 0.0; //!< all cache levels + shifts
    Joules llc_shift_energy = 0.0;
    Joules dram_energy = 0.0;
    Joules leakage_energy = 0.0;

    // LLC behaviour.
    uint64_t llc_accesses = 0;
    uint64_t llc_misses = 0;
    uint64_t dram_accesses = 0; //!< measured phase (warmup excluded)
    uint64_t shift_ops = 0;
    uint64_t shift_steps = 0;
    Cycles shift_cycles = 0;

    // Placement migrations (racetrack LLC with a dynamic placement
    // policy; zero otherwise). Their steps are included in
    // shift_steps.
    uint64_t migrations = 0;
    uint64_t migration_steps = 0;

    // Pooled-codeword redundancy traffic (racetrack LLC under a
    // multi-frame protection domain; zero under the default
    // per-frame policy). Counted inside llc/shift totals too.
    uint64_t redundancy_accesses = 0;
    uint64_t redundancy_steps = 0;

    // Reliability (racetrack only; +inf otherwise).
    Seconds sdc_mttf = 0.0;
    Seconds due_mttf = 0.0;

    /** Total energy including leakage and DRAM. */
    Joules totalEnergy() const
    {
        return cache_dynamic_energy + dram_energy + leakage_energy;
    }

    /** Instructions per cycle across all cores. */
    double ipc() const;

    /**
     * Shift steps (total shift distance, migrations included) per
     * LLC access — the metric data placement minimises.
     */
    double shiftsPerAccess() const;

    bool operator==(const SimResult &) const = default;
};

/**
 * Keys of a matrix cell result (util/fields.hh). The redundancy pair
 * is written only under a pooled-codeword domain, so result
 * documents (and digests) from the default policy keep their bytes.
 */
template <class V, FieldsOf<SimResult>... S>
void
forEachField(V &&v, S &...s)
{
    v("workload", s.workload...);
    v("tech", s.llc_tech...);
    v("scheme", s.scheme...);
    v("instructions", s.instructions...);
    v("mem_ops", s.mem_ops...);
    v("cycles", s.cycles...);
    v("seconds", s.seconds...);
    v("ipc", EmitOnly{s.ipc()}...);
    v("llc_accesses", s.llc_accesses...);
    v("llc_misses", s.llc_misses...);
    v("dram_accesses", s.dram_accesses...);
    v("shift_ops", s.shift_ops...);
    v("shift_steps", s.shift_steps...);
    v("shift_cycles", s.shift_cycles...);
    v("shifts_per_access", EmitOnly{s.shiftsPerAccess()}...);
    v("migrations", s.migrations...);
    v("migration_steps", s.migration_steps...);
    if (v.emitWhen(
            (s.redundancy_accesses > 0 || s.redundancy_steps > 0)...)) {
        v("redundancy_accesses", s.redundancy_accesses...);
        v("redundancy_steps", s.redundancy_steps...);
    }
    v("cache_dynamic_energy", s.cache_dynamic_energy...);
    v("llc_shift_energy", s.llc_shift_energy...);
    v("dram_energy", s.dram_energy...);
    v("leakage_energy", s.leakage_energy...);
    v("total_energy", EmitOnly{s.totalEnergy()}...);
    v("sdc_mttf", NullIfInf{s.sdc_mttf}...);
    v("due_mttf", NullIfInf{s.due_mttf}...);
}

/** One simulation configuration. */
struct SimConfig
{
    HierarchyConfig hierarchy;
    uint64_t mem_requests = 200000; //!< requests to simulate
    uint64_t warmup_requests = 20000;
    uint64_t seed = 42;

    /**
     * Observability sink for this run: forwarded into the hierarchy
     * (and the racetrack bank), plus sim-level counters, an access
     * latency histogram, and LLC miss-burst events. Disabled (null)
     * by default; SimResult is bit-identical either way.
     */
    TelemetryScope telemetry = {};

    /**
     * Optional cooperative stop flag, polled periodically inside the
     * warmup and measure loops. When it trips the run returns early
     * with a partial (invalid) result — the caller is responsible for
     * discarding it, which the experiment engine does by classifying
     * the cell as cancelled/timed-out instead of completed.
     */
    StopFlag *stop = nullptr;

    /**
     * When non-null, receives the racetrack bank's per-frame access
     * counts at the end of the run (empty for non-racetrack LLCs).
     * Setting it turns on `hierarchy.placement.track_counts`, so any
     * placement kind counts; a profiling pass feeds the counts back
     * as the offline hot-center profile of a second run.
     */
    std::vector<uint64_t> *frame_profile_out = nullptr;
};

/**
 * How a run's requests split into chunks: kChunkRequests requests
 * each, the warmup phase's chunks first, each phase's last chunk
 * shorter. The run polls its stop flag between chunks.
 */
struct ChunkPlan
{
    static constexpr uint64_t kChunkRequests = 1024;

    explicit ChunkPlan(const SimConfig &config);

    /** Requests in chunk k. */
    size_t size(size_t k) const;

    uint64_t warmup;      //!< warmup requests
    uint64_t requests;    //!< measured requests
    size_t warmup_chunks; //!< chunks of the warmup phase
    size_t chunks;        //!< warmup chunks, then the measured ones
};

/**
 * The requests of one chunk with their front-end outcomes: what a
 * run's back end serves. A lone run draws the requests and runs its
 * own L1/L2 over them; a run that shares a FrontEndLog gets both
 * from the log. A logged request that stays in L1/L2 carries address
 * 0: the back end reads the address of an L2 miss only.
 */
struct FrontEndBatch
{
    MemRequest requests[ChunkPlan::kChunkRequests];
    uint8_t bits[ChunkPlan::kChunkRequests]; //!< request j's FrontEndBits
    Addr victims[ChunkPlan::kChunkRequests]; //!< set under kL2Writeback
};

/** One chunk record's storage (FrontEndLog). */
struct ChunkBuffer
{
    std::unique_ptr<std::byte[]> bytes;
    size_t capacity = 0; //!< bytes
};

/**
 * The free list of chunk-record buffers that an experiment's row
 * logs share. A record is freed by whichever run reads it last; its
 * buffer comes back here and the next build in any row reuses it, so
 * the records do not spread over the pool workers' malloc arenas.
 */
class ChunkPool
{
  public:
    ChunkPool() = default;
    ChunkPool(const ChunkPool &) = delete;
    ChunkPool &operator=(const ChunkPool &) = delete;

    /**
     * A buffer of at least `bytes` bytes: the last one given back
     * when it fits, else a new one. A pool whose callers all ask for
     * one size thus holds no more buffers than were live at once.
     */
    ChunkBuffer take(size_t bytes);

    /** Return `buffer` for reuse. */
    void give(ChunkBuffer buffer);

  private:
    std::mutex mutex_;
    std::vector<ChunkBuffer> free_;
};

/**
 * The request stream of one matrix row and its L1/L2 outcomes,
 * computed once and read by every run of the row (the front end of
 * the hierarchy split in mem/hierarchy.hh).
 *
 * A matrix row replays one request stream (same workload, seed,
 * request counts, cores and capacity divisor) into each LLC option,
 * and L1/L2 never read L3 state, so neither the requests nor their
 * front-end outcomes depend on the option. The log owns the row's
 * RequestStream, and the row's runs ask it for each chunk in turn.
 * The first run to ask for a chunk builds it under the log's mutex:
 * it draws the chunk's requests from the stream, runs them through
 * the log's single L1/L2 state, records both, and serves what it
 * drew. A run behind that frontier decodes the record without
 * locking, and a run at it waits on the mutex. The requests come
 * from the log alone, so a chunk's contents do not depend on which
 * run built it, and neither does any result; no run but the builder
 * draws requests.
 *
 * A chunk record is a few bytes per request, in one ChunkPool
 * buffer that holds any record without escapes: per request, one
 * byte with the FrontEndBits nibble, the
 * write bit and the core (so at most 8 cores), and one byte of
 * instruction gap (255 and up escape to a 32-bit side list); per L2
 * miss, the 32-bit line number (an unaligned address or a line of
 * 2^32 - 1 and up escapes to a 64-bit side list); per L2 writeback,
 * the victim's L2 tag in 16 bits (a victim lies in its request's L2
 * set; a wider tag escapes likewise).
 *
 * A chunk is freed once every consumer has read it, and whatever is
 * left once every consumer has called release(); a consumer
 * therefore reads the log in one pass only, and a run that starts
 * over must simulate on its own.
 */
class FrontEndLog
{
  public:
    /**
     * @param config    any consumer's configuration: the L1/L2 follow
     *                  its hierarchy's cores (at most 8) and capacity
     *                  divisor, the chunks its warmup and request
     *                  counts
     * @param stream    the row's requests, drawn only by builds
     * @param consumers runs that will read the log (at least 2; a
     *                  lone run keeps its own L1/L2)
     * @param pool      where chunk buffers come from and go back to
     *                  (must outlive the log)
     */
    FrontEndLog(const SimConfig &config, RequestStream stream,
                size_t consumers, ChunkPool &pool);

    /** True when a run under `config` drawing `stream` serves what
     *  this log holds (the same requests, request counts and front
     *  end). */
    bool fits(const SimConfig &config,
              const RequestStream &stream) const;

    /** The chunks of the stream. */
    const ChunkPlan &plan() const { return plan_; }

    /**
     * Fill `out` with the plan().size(k) requests of chunk `k` and
     * their outcomes. Each consumer asks once per chunk, in order;
     * the last one to ask frees the chunk.
     */
    void chunk(size_t k, FrontEndBatch &out);

    /**
     * Export the L1/L2 counters into `sink`. Read once the caller has
     * read the last chunk: they then cover the whole stream.
     */
    void exportTelemetry(Telemetry &sink) const;

    /**
     * A consumer is done for good (its last attempt has ended). The
     * last one frees the chunks, the stream and the L1/L2 state.
     */
    void release();

  private:
    /** Build chunk `k` = built_ into `out` and its record (mutex
     *  held). A failed build would leave the stream and the L1/L2
     *  state past the built chunks, so it ends the program instead
     *  of throwing. */
    void build(size_t k, FrontEndBatch &out) noexcept;

    /** The caller is done with chunk `k`; the last consumer frees
     *  it. */
    void served(size_t k);

    HierarchyConfig geometry_; //!< the L1/L2's cores and divisor
    ChunkPlan plan_;
    std::optional<RequestStream> stream_; //!< reset by the last release
    size_t consumers_;
    ChunkPool &pool_;
    // Made by the first build, so a log that no run has reached holds
    // no L1/L2 and no chunks.
    std::optional<FrontEnd> front_;
    int victim_tag_shift_ = 0;
    std::vector<ChunkBuffer> chunk_;
    /** Consumers done with each chunk. */
    std::unique_ptr<std::atomic<size_t>[]> served_;

    std::mutex mutex_;             //!< held by build() and release()
    std::atomic<size_t> built_{0}; //!< chunks built
    size_t released_ = 0;
};

/**
 * Run one workload through one configuration.
 *
 * @param profile workload profile
 * @param config  simulation configuration
 * @param model   position-error model for racetrack LLCs (ignored
 *                otherwise; must outlive the call)
 * @param row     log of the row's requests and front-end outcomes,
 *                shared with other runs of the same stream (must fit
 *                `config` and `profile`); the run then builds no
 *                generator. Null draws the requests here and runs a
 *                private L1/L2.
 */
SimResult simulate(const WorkloadProfile &profile,
                   const SimConfig &config,
                   const PositionErrorModel *model,
                   FrontEndLog *row = nullptr);

/**
 * Run a recorded trace through one configuration (the trace loops
 * if it is shorter than config.mem_requests). The warmup phase is
 * also served from the trace.
 *
 * @param name     label recorded in the result
 * @param requests the trace (must be non-empty)
 */
SimResult simulateTrace(const std::string &name,
                        const std::vector<MemRequest> &requests,
                        const SimConfig &config,
                        const PositionErrorModel *model,
                        FrontEndLog *row = nullptr);

} // namespace rtm

#endif // RTM_SIM_SYSTEM_HH
