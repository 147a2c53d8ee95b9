/**
 * @file
 * Synthetic memory-access workload generators.
 *
 * The paper evaluates on PARSEC. Without the original traces we
 * generate synthetic access streams whose first-order properties
 * drive the results that matter here: working-set size relative to
 * the LLC options (4 MB SRAM / 32 MB STT-RAM / 128 MB racetrack),
 * spatial locality (sequential runs vs random lines), read/write mix,
 * and memory-operation density. Each PARSEC benchmark is represented
 * by a parameter profile calibrated so it lands on the paper's side
 * of the capacity-sensitive / capacity-insensitive divide (Fig. 16).
 *
 * Substitution documented in DESIGN.md.
 *
 * The generator sits on the simulator's per-request hot path, so
 * everything that depends only on the profile is fixed at
 * construction: the region geometry (private/shared split, hot-set
 * sizes) with one FixedUniformInt per bound, one FixedBernoulli per
 * probability, and an integer inverse-CDF threshold table for the
 * geometric instruction gap instead of a `log` call per request. All
 * of them draw RNG variates in the original order and reproduce the
 * original values bit-for-bit (pinned by tests/sim_golden_test.cc).
 */

#ifndef RTM_TRACE_WORKLOAD_HH
#define RTM_TRACE_WORKLOAD_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mem/cache.hh"
#include "util/rng.hh"

namespace rtm
{

/** One memory request of a trace. */
struct MemRequest
{
    int core = 0;
    Addr addr = 0;
    bool is_write = false;
    /** Non-memory instructions executed before this request. */
    uint32_t gap_instructions = 0;
};

/** Parameters of one synthetic workload. */
struct WorkloadProfile
{
    std::string name;
    uint64_t working_set_bytes = 1ull << 20;
    /** Fraction of accesses hitting the hot subset of the set. */
    double hot_fraction = 0.8;
    /** Size of the hot subset relative to the working set. */
    double hot_set_ratio = 0.1;
    /** Probability the next access continues a sequential run. */
    double sequential_prob = 0.5;
    /** Fraction of requests that are writes. */
    double write_ratio = 0.3;
    /** Mean non-memory instructions between memory operations. */
    double mean_gap = 3.0;
    /** True if the paper classes it capacity sensitive (Fig. 16). */
    bool capacity_sensitive = false;

    bool operator==(const WorkloadProfile &) const = default;
};

/** Profiles for the PARSEC benchmarks used in the paper's figures. */
std::vector<WorkloadProfile> parsecProfiles();

/** Look up one profile by name (fatal if unknown). */
WorkloadProfile parsecProfile(const std::string &name);

/**
 * Precomputed sampler for the truncated geometric instruction gap
 * `min(floor(-mean * log(1 - u)), 1000)` over u in [0, 1).
 *
 * The generator's uniforms are u = m * 2^-53 for a grid index m in
 * [0, 2^53) (Rng::nextGrid), so the sampler works on m directly.
 * thresholds()[k] is the smallest grid index whose gap is at least
 * k+1, found by binary search against the original expression, so
 * `sample(m)` returns exactly what the per-request `log` computed for
 * every possible m. The table has one entry per reachable gap value
 * (~37 * mean entries). A bucket index on the top 11 bits of m
 * narrows the threshold scan to the few entries inside m's bucket;
 * most buckets contain no threshold at all, so the common case is
 * one table lookup and zero compares (no data-dependent branch to
 * mispredict, unlike a scan from 0 whose exit is geometrically
 * distributed).
 */
class GeometricGapSampler
{
  public:
    explicit GeometricGapSampler(double mean_gap);

    /** Gap for one grid index m in [0, 2^53). */
    uint32_t sample(uint64_t m) const
    {
        const Bucket b = buckets_[m >> kBucketShift];
        uint32_t gap = b.lo;
        while (gap < b.hi && m >= thresholds_[gap])
            ++gap;
        return gap;
    }

    /** The exact reference expression the table was solved against. */
    static uint32_t reference(double mean_gap, double u);

    /** Threshold table as grid indices (introspection/tests). */
    const std::vector<uint64_t> &thresholds() const
    {
        return thresholds_;
    }

  private:
    /** 2^11 buckets of 2^42 grid indices each. */
    static constexpr int kBucketShift = 42;

    /** gap(m) lies in [lo, hi] for every m of the bucket. */
    struct Bucket
    {
        uint32_t lo;
        uint32_t hi;
    };

    std::vector<uint64_t> thresholds_;
    std::vector<Bucket> buckets_;
};

/**
 * Stream generator for one profile across `cores` cores.
 *
 * Each core owns a private region of the working set plus a shared
 * region, mimicking PARSEC's mostly-partitioned parallel phases.
 */
class WorkloadGenerator
{
  public:
    WorkloadGenerator(const WorkloadProfile &profile, int cores,
                      uint64_t seed);

    /** Produce the next request (round-robin across cores). */
    MemRequest next();

    const WorkloadProfile &profile() const { return profile_; }

  private:
    /** Index draws over one region: all of it, or its hot subset. */
    struct Region
    {
        FixedUniformInt all;
        FixedUniformInt hot;
    };

    WorkloadProfile profile_;
    int cores_;
    Rng rng_;
    GeometricGapSampler gap_sampler_;
    int next_core_ = 0;
    std::vector<Addr> run_addr_;   //!< per-core sequential cursor
    std::vector<int> run_left_;    //!< lines left in current run

    // Region geometry, derived once from (profile, cores). The
    // shared region sits above the per-core private regions; when
    // the private split degenerates to zero lines each private
    // region falls back to the whole working set (base 0, which
    // private_lines_ * core already is).
    uint64_t private_lines_;  //!< private lines per core
    uint64_t shared_base_;    //!< first line of the shared region
    Region private_;
    Region shared_;

    // The profile's coins and the run-length draw.
    FixedBernoulli shared_coin_;
    FixedBernoulli hot_coin_;
    FixedBernoulli write_coin_;
    FixedBernoulli sequential_coin_;
    FixedUniformInt run_length_;

    /** Draws over a region of `lines` lines and its hot subset. */
    static Region regionFor(uint64_t lines, double hot_set_ratio);

    Addr pickLine(int core);
};

/**
 * The request source of one run: a workload profile's generator, or
 * a recorded trace read in a loop from its first request.
 *
 * The generator is built by the first fill(), so a stream that is
 * never drawn (a run that reads its requests from a row log) builds
 * none.
 */
class RequestStream
{
  public:
    /** `profile`'s stream across `cores` cores from `seed`. */
    RequestStream(const WorkloadProfile &profile, int cores,
                  uint64_t seed);

    /** `trace`, looping (non-empty; must outlive the stream). */
    explicit RequestStream(const std::vector<MemRequest> &trace);

    /** Draw the next `n` requests into `out`. */
    void fill(MemRequest *out, size_t n);

    /** True when both yield the same requests: the same profile,
     *  cores and seed, or the same trace object. */
    bool sameAs(const RequestStream &other) const;

  private:
    WorkloadProfile profile_;
    int cores_ = 0;
    uint64_t seed_ = 0;
    std::optional<WorkloadGenerator> gen_;
    const std::vector<MemRequest> *trace_ = nullptr;
    size_t pos_ = 0; //!< next trace request
};

} // namespace rtm

#endif // RTM_TRACE_WORKLOAD_HH
