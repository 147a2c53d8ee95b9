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

#include <memory>
#include <string>

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
     * counts at the end of the run (empty for non-racetrack LLCs or
     * non-tracking placement policies). A profiling pass sets
     * `hierarchy.placement.track_counts` and feeds the counts back
     * as the offline hot-center profile of a second run.
     */
    std::vector<uint64_t> *frame_profile_out = nullptr;
};

/**
 * Run one workload through one configuration.
 *
 * @param profile workload profile
 * @param config  simulation configuration
 * @param model   position-error model for racetrack LLCs (ignored
 *                otherwise; must outlive the call)
 */
SimResult simulate(const WorkloadProfile &profile,
                   const SimConfig &config,
                   const PositionErrorModel *model);

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
                        const PositionErrorModel *model);

} // namespace rtm

#endif // RTM_SIM_SYSTEM_HH
