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
 *
 * An access runs in two parts. The front end (FrontEnd: the L1s and
 * L2s) updates the L1/L2 tag state and reduces the request to a few
 * outcome bits plus the L2 victim line. The back end (BackEnd: L3,
 * the racetrack bank and DRAM) takes those bits and adds every
 * level's latency and energy, in the order a single pass would. L1
 * and L2 never read L3 state, so the front end's outcomes depend only
 * on the request stream and the L1/L2 geometry (cores, capacity
 * divisor), never on the LLC option. The system simulator uses that
 * to draw each matrix row's requests once, run them through one
 * front end, log both chunk by chunk, and replay them into each
 * option's back end (sim/system.hh, FrontEndLog). A logged request
 * that stays in L1/L2 keeps no address, since BackEnd::serve reads
 * it only for an L2 miss. A run that shares its stream with no other
 * draws its own requests and keeps its own front end. Hierarchy is
 * the two parts run back to back, one request at a time.
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
#include "util/logging.hh"
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

/** Hierarchy-wide configuration (geometry: device/organisation.hh). */
struct HierarchyConfig
{
    int cores = 4;
    MemTech llc_tech = MemTech::Racetrack;
    Scheme scheme = Scheme::PeccSAdaptive;
    HeadPolicy head_policy = HeadPolicy::Stay;

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
     * Observability sink, forwarded to the racetrack bank. Disabled
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

/** Outcome bits of one request at the front end (FrontEnd::access). */
enum FrontEndBits : uint8_t
{
    kL1Miss = 1,      //!< missed L1, so L2 was looked up
    kL1Writeback = 2, //!< the L1 victim was dirty and wrote into L2
    kL2Miss = 4,      //!< missed L2 too, so the request goes to L3
    kL2Writeback = 8, //!< the L2 victim was dirty and installs into L3
};

/**
 * The L1/L2 half of the hierarchy: one L1 per core, one L2 per core
 * pair. It holds tag state only; BackEnd::serve charges the latency
 * and energy of what the outcome bits say happened.
 */
class FrontEnd
{
  public:
    explicit FrontEnd(const HierarchyConfig &config);

    /**
     * Look addr up in core's L1 and, on a miss, its cluster's L2;
     * return the FrontEndBits. When kL2Writeback is set, `l2_victim`
     * receives the evicted L2 line's address.
     */
    uint8_t access(int core, Addr addr, bool is_write, Addr *l2_victim)
    {
        if (core < 0 || core >= cores_)
            rtm_panic("core %d out of range", core);
        CacheAccessResult r1 =
            l1_[static_cast<size_t>(core)].access(addr, is_write);
        if (r1.hit)
            return 0;
        // A dirty L1 victim writes into L2; whatever that write
        // evicts is dropped (the write happens off the critical
        // path), and a dirty line dropped so is counted.
        Cache &l2c = l2_[static_cast<size_t>(core / 2)];
        uint8_t bits = kL1Miss;
        if (r1.writeback) {
            if (l2c.access(r1.victim_addr, true).writeback)
                ++dropped_writebacks_;
            bits |= kL1Writeback;
        }
        CacheAccessResult r2 = l2c.access(addr, is_write);
        if (r2.hit)
            return bits;
        bits |= kL2Miss;
        if (r2.writeback) {
            bits |= kL2Writeback;
            *l2_victim = r2.victim_addr;
        }
        return bits;
    }

    /** L1 data cache of a core (stats inspection). */
    const Cache &l1(int core) const;

    /** L2 of a core pair. */
    const Cache &l2(int cluster) const;

    /** Export the L1 (summed across cores) and L2 (across clusters)
     *  hit/miss/writeback counters into `sink`, and as
     *  `mem.l2.dropped_writebacks` the dirty L2 lines evicted by a
     *  dirty L1 victim's install, whose writeback is dropped. */
    void exportTelemetry(Telemetry &sink) const;

  private:
    int cores_;
    std::vector<Cache> l1_;
    std::vector<Cache> l2_;
    uint64_t dropped_writebacks_ = 0;
};

/**
 * The L3 half of the hierarchy: the shared L3, the racetrack bank
 * and DRAM, plus the latency and energy ledger of every level.
 */
class BackEnd
{
  public:
    /**
     * @param config system configuration
     * @param model  position-error model (racetrack LLC only; may be
     *               null for SRAM/STT-RAM configurations)
     */
    BackEnd(const HierarchyConfig &config,
            const PositionErrorModel *model);

    /**
     * Finish one access whose front-end outcome is `bits` (and
     * `l2_victim`, read only under kL2Writeback) at absolute time
     * `now`: charge L1 and L2, then serve an L2 miss at L3 and DRAM.
     */
    HierarchyAccess serve(uint8_t bits, Addr addr, bool is_write,
                          Addr l2_victim, Cycles now)
    {
        HierarchyAccess out;
        out.latency += is_write ? l1_params_.write_latency
                                : l1_params_.read_latency;
        out.energy += is_write ? l1_params_.write_energy
                               : l1_params_.read_energy;
        if (!(bits & kL1Miss)) {
            out.l1_hit = true;
            return out;
        }
        // The dirty L1 victim's write into L2 costs energy only.
        if (bits & kL1Writeback)
            out.energy += l2_params_.write_energy;
        out.latency += is_write ? l2_params_.write_latency
                                : l2_params_.read_latency;
        out.energy += is_write ? l2_params_.write_energy
                               : l2_params_.read_energy;
        if (!(bits & kL2Miss)) {
            out.l2_hit = true;
            return out;
        }
        serveLlc(out, bits, addr, is_write, l2_victim, now);
        return out;
    }

    /** Shared L3. */
    const Cache &l3() const { return l3_; }

    /** Prefetch the L3 tag and recency words addr would look up. */
    void prefetchLlc(Addr addr) const { l3_.prefetch(addr); }

    /** Racetrack shift engine (null for SRAM/STT-RAM LLC). */
    RmBank *rmBank() { return rm_bank_.get(); }
    const RmBank *rmBank() const { return rm_bank_.get(); }

    /** DRAM accesses so far. */
    uint64_t dramAccesses() const { return dram_accesses_; }

    /** Total dynamic energy of DRAM accesses. */
    Joules dramEnergy() const { return dram_energy_; }

    /** Static power of all cache levels combined, watts. */
    double totalLeakageWatts() const;

    /** Export the L3 counters and the DRAM ledger into `sink`. */
    void exportTelemetry(Telemetry &sink) const;

  private:
    /** The L3 and DRAM part of serve(), for an L2 miss. */
    void serveLlc(HierarchyAccess &out, uint8_t bits, Addr addr,
                  bool is_write, Addr l2_victim, Cycles now);

    HierarchyConfig config_;
    TechParams l1_params_;
    TechParams l2_params_;
    TechParams l3_params_;
    DramParams dram_;
    Cache l3_;
    std::unique_ptr<RmBank> rm_bank_;
    uint64_t dram_accesses_ = 0;
    Joules dram_energy_ = 0.0;
};

/**
 * The full hierarchy: a FrontEnd and a BackEnd served back to back.
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
                           Cycles now)
    {
        Addr victim = 0;
        const uint8_t bits = front_.access(core, addr, is_write, &victim);
        return back_.serve(bits, addr, is_write, victim, now);
    }

    /** L1 data cache of a core (stats inspection). */
    const Cache &l1(int core) const { return front_.l1(core); }

    /** L2 of a core pair. */
    const Cache &l2(int cluster) const { return front_.l2(cluster); }

    /** Shared L3. */
    const Cache &l3() const { return back_.l3(); }

    /** Racetrack shift engine (null for SRAM/STT-RAM LLC). */
    RmBank *rmBank() { return back_.rmBank(); }
    const RmBank *rmBank() const { return back_.rmBank(); }

    /** DRAM accesses so far. */
    uint64_t dramAccesses() const { return back_.dramAccesses(); }

    /** Total dynamic energy of DRAM accesses. */
    Joules dramEnergy() const { return back_.dramEnergy(); }

    /** Static power of all cache levels combined, watts. */
    double totalLeakageWatts() const
    {
        return back_.totalLeakageWatts();
    }

  private:
    FrontEnd front_;
    BackEnd back_;
};

} // namespace rtm

#endif // RTM_MEM_HIERARCHY_HH
