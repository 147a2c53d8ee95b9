/**
 * @file
 * Three-level cache hierarchy (paper Table 4).
 *
 * Per-core split-L1 (the simulator drives the data side), one L2 per
 * core pair, and a shared L3 whose technology is configurable: SRAM
 * (4 MB), STT-RAM (32 MB), or racetrack (128 MB) with a protection
 * scheme. Misses at L3 go to DDR3 main memory. Timing is additive
 * along the miss path (the paper's in-order cores block on memory),
 * and every level accumulates dynamic energy; leakage integrates over
 * simulated time in the system simulator.
 */

#ifndef RTM_MEM_HIERARCHY_HH
#define RTM_MEM_HIERARCHY_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "device/error_model.hh"
#include "mem/cache.hh"
#include "mem/rm_bank.hh"
#include "model/tech.hh"
#include "util/units.hh"

namespace rtm
{

/** Outcome of one hierarchy access. */
struct HierarchyAccess
{
    Cycles latency = 0;     //!< total cycles to service
    Joules energy = 0.0;    //!< dynamic energy across all levels
    bool l1_hit = false;
    bool l2_hit = false;
    bool l3_hit = false;
    bool dram_access = false;
    Cycles shift_cycles = 0; //!< racetrack shift share of latency
};

/** Hierarchy-wide configuration. */
struct HierarchyConfig
{
    int cores = 4;
    MemTech llc_tech = MemTech::Racetrack;
    Scheme scheme = Scheme::PeccSAdaptive;
    int llc_ways = 16;
    int l1_ways = 2;
    int l2_ways = 4;
    int line_bytes = 64;
    int seg_len = 8;          //!< racetrack segment length
    int frames_per_group = 64;
    double mttf_target_s = kDefaultSafeMttfSeconds;
    HeadPolicy head_policy = HeadPolicy::Stay;
    bool model_contention = false;

    /** Racetrack data-placement policy (mem/placement.hh). */
    PlacementConfig placement;

    /**
     * Protection-domain policy (mem/protection.hh). A scheme
     * override in the uniform/llc domain replaces `scheme` for the
     * racetrack bank; pooled-codeword domains add redundancy-frame
     * accesses on writes (and on reads unless two-tier). The
     * default policy changes nothing.
     */
    ProtectionPolicy protection;

    /**
     * Uniform capacity divisor applied to every cache level. The
     * Table 4 hierarchy needs millions of requests before a
     * capacity-sensitive working set develops reuse in a 128 MB LLC;
     * dividing all capacities (and the workload's working set) by
     * the same factor preserves the 4/32/128 MB ratios and the
     * capacity-sensitivity divide while keeping runs tractable.
     * 1 = full-size Table 4 capacities.
     */
    uint64_t capacity_divisor = 1;

    /**
     * Observability sink, forwarded to the racetrack bank and used
     * by exportTelemetry for per-level cache counters. Disabled
     * (null) by default; results are bit-identical either way.
     */
    TelemetryScope telemetry = {};
};

/**
 * Why `config` cannot be built, or "" when it can: at least one core,
 * a capacity divisor >= 1 that leaves L1 at least 16 lines, and a
 * valid cache geometry (cacheGeometryError) at every level after
 * dividing. The Hierarchy constructor and the spec and command-line
 * readers all check it, so a bad divisor is refused before any
 * simulation starts.
 */
std::string hierarchyGeometryError(const HierarchyConfig &config);

/**
 * The full hierarchy.
 */
class Hierarchy
{
  public:
    /**
     * @param config system configuration
     * @param model  position-error model (racetrack LLC only; may be
     *               null for SRAM/STT-RAM configurations)
     */
    Hierarchy(const HierarchyConfig &config,
              const PositionErrorModel *model);

    /**
     * Service one data access from `core` at absolute time `now`.
     */
    HierarchyAccess access(int core, Addr addr, bool is_write,
                           Cycles now);

    /** L1 data cache of a core (stats inspection). */
    const Cache &l1(int core) const;

    /** L2 of a core pair. */
    const Cache &l2(int cluster) const;

    /** Shared L3. */
    const Cache &l3() const { return *l3_; }

    /** Prefetch the L3 tag and recency words addr would look up. */
    void prefetchLlc(Addr addr) const { l3_->prefetch(addr); }

    /** Racetrack shift engine (null for SRAM/STT-RAM LLC). */
    RmBank *rmBank() { return rm_bank_.get(); }
    const RmBank *rmBank() const { return rm_bank_.get(); }

    /** DRAM accesses so far. */
    uint64_t dramAccesses() const { return dram_accesses_; }

    /** Total dynamic energy of DRAM accesses. */
    Joules dramEnergy() const { return dram_energy_; }

    /** Static power of all cache levels combined, watts. */
    double totalLeakageWatts() const;

    const HierarchyConfig &config() const { return config_; }

    /**
     * Export cumulative per-level hit/miss/writeback counters (L1
     * summed across cores, L2 across clusters, L3, DRAM) into
     * `sink`'s registry. End-of-run snapshot: cheaper than
     * per-access instrumentation and exactly consistent with the
     * CacheStats ledgers.
     */
    void exportTelemetry(Telemetry &sink) const;

  private:
    HierarchyConfig config_;
    TechParams l1_params_;
    TechParams l2_params_;
    TechParams l3_params_;
    DramParams dram_;
    std::vector<std::unique_ptr<Cache>> l1_;
    std::vector<std::unique_ptr<Cache>> l2_;
    std::unique_ptr<Cache> l3_;
    std::unique_ptr<RmBank> rm_bank_;
    uint64_t dram_accesses_ = 0;
    Joules dram_energy_ = 0.0;
};

} // namespace rtm

#endif // RTM_MEM_HIERARCHY_HH
