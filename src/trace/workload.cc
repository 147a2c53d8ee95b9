#include "workload.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace rtm
{

namespace
{

constexpr uint64_t kMiB = 1ull << 20;

WorkloadProfile
make(const std::string &name, uint64_t ws, double hot_frac,
     double hot_ratio, double seq, double wr, double gap,
     bool sensitive)
{
    WorkloadProfile p;
    p.name = name;
    p.working_set_bytes = ws;
    p.hot_fraction = hot_frac;
    p.hot_set_ratio = hot_ratio;
    p.sequential_prob = seq;
    p.write_ratio = wr;
    p.mean_gap = gap;
    p.capacity_sensitive = sensitive;
    return p;
}

} // anonymous namespace

std::vector<WorkloadProfile>
parsecProfiles()
{
    // Working sets are chosen relative to the LLC options: sensitive
    // workloads live between 4 MB (SRAM) and 128 MB (racetrack) so
    // larger LLCs cut their miss rates; insensitive ones fit in 4 MB
    // or stream far past 128 MB.
    return {
        // --- capacity sensitive ------------------------------------
        make("canneal", 96 * kMiB, 0.55, 0.05, 0.15, 0.25, 4.0, true),
        make("ferret", 48 * kMiB, 0.70, 0.10, 0.40, 0.30, 3.5, true),
        make("streamcluster", 64 * kMiB, 0.60, 0.08, 0.80, 0.20, 2.5,
             true),
        make("dedup", 40 * kMiB, 0.65, 0.10, 0.55, 0.40, 3.0, true),
        make("facesim", 72 * kMiB, 0.70, 0.12, 0.60, 0.35, 3.5, true),
        make("x264", 24 * kMiB, 0.75, 0.15, 0.65, 0.30, 3.0, true),
        // --- capacity insensitive ----------------------------------
        make("blackscholes", 2 * kMiB, 0.90, 0.20, 0.70, 0.20, 5.0,
             false),
        make("bodytrack", 3 * kMiB, 0.85, 0.20, 0.55, 0.30, 4.0,
             false),
        make("swaptions", 1 * kMiB, 0.90, 0.25, 0.60, 0.25, 5.0,
             false),
        make("fluidanimate", 3 * kMiB, 0.80, 0.20, 0.60, 0.35, 3.5,
             false),
        make("freqmine", 2 * kMiB, 0.85, 0.20, 0.50, 0.30, 4.0,
             false),
        make("vips", 3 * kMiB, 0.80, 0.20, 0.70, 0.35, 3.0, false),
    };
}

WorkloadProfile
parsecProfile(const std::string &name)
{
    for (const auto &p : parsecProfiles())
        if (p.name == name)
            return p;
    rtm_fatal("unknown workload profile '%s'", name.c_str());
}

uint32_t
GeometricGapSampler::reference(double mean_gap, double u)
{
    double gap = -mean_gap * std::log(1.0 - u);
    return static_cast<uint32_t>(std::min(gap, 1000.0));
}

GeometricGapSampler::GeometricGapSampler(double mean_gap)
{
    // The generator draws uniforms as (next() >> 11) * 2^-53, i.e.
    // on the grid m * 2^-53 for m in [0, 2^53). The reference gap is
    // weakly monotone in u (1-u, log, scale, min and the integer
    // cast all preserve ordering), so the preimage of "gap >= k" is
    // an upper segment of the grid and its boundary can be found by
    // binary search against the reference expression itself — no
    // analytic inversion, hence no rounding disagreement.
    constexpr uint64_t kGrid = 1ull << 53;
    constexpr double kUlp = 0x1.0p-53;
    const double max_u = static_cast<double>(kGrid - 1) * kUlp;
    const uint32_t max_gap = reference(mean_gap, max_u);
    thresholds_.reserve(max_gap);
    uint64_t lo = 0;
    for (uint32_t k = 1; k <= max_gap; ++k) {
        uint64_t a = lo, b = kGrid - 1;
        while (a < b) {
            uint64_t mid = a + (b - a) / 2;
            if (reference(mean_gap,
                          static_cast<double>(mid) * kUlp) >= k) {
                b = mid;
            } else {
                a = mid + 1;
            }
        }
        thresholds_.push_back(a);
        lo = a;
    }

    // Bucket index: for m in bucket b, [b << 42, (b + 1) << 42), the
    // gap is bounded by [#thresholds <= b << 42, #thresholds <
    // (b + 1) << 42]; the residual scan in sample() resolves the
    // (rare) buckets a threshold falls inside.
    constexpr uint64_t kBuckets = kGrid >> kBucketShift;
    buckets_.resize(kBuckets);
    for (uint64_t b = 0; b < kBuckets; ++b) {
        const uint64_t first = b << kBucketShift;
        const uint64_t end = (b + 1) << kBucketShift;
        buckets_[b].lo = static_cast<uint32_t>(
            std::upper_bound(thresholds_.begin(), thresholds_.end(),
                             first) -
            thresholds_.begin());
        buckets_[b].hi = static_cast<uint32_t>(
            std::lower_bound(thresholds_.begin(), thresholds_.end(),
                             end) -
            thresholds_.begin());
    }
}

namespace
{

/** Checked before any member is derived from the profile. */
const WorkloadProfile &
validProfile(const WorkloadProfile &profile, int cores)
{
    if (cores < 1)
        rtm_fatal("workload needs at least one core");
    if (profile.working_set_bytes < kLineBytes * 16ull)
        rtm_fatal("working set too small");
    return profile;
}

/** max(1, floor(lines * ratio)): a hot subset is never empty. */
uint64_t
hotLines(uint64_t lines, double ratio)
{
    return std::max<uint64_t>(
        1, static_cast<uint64_t>(static_cast<double>(lines) * ratio));
}

} // anonymous namespace

WorkloadGenerator::WorkloadGenerator(const WorkloadProfile &profile,
                                     int cores, uint64_t seed)
    : profile_(validProfile(profile, cores)), cores_(cores),
      rng_(seed), gap_sampler_(profile.mean_gap),
      run_addr_(static_cast<size_t>(cores), 0),
      run_left_(static_cast<size_t>(cores), 0),
      // 3/4 of the working set is core-private, 1/4 shared.
      private_lines_(profile.working_set_bytes / kLineBytes * 3 / 4 /
                     static_cast<uint64_t>(cores)),
      shared_base_(private_lines_ * static_cast<uint64_t>(cores)),
      private_(regionFor(private_lines_ > 0
                             ? private_lines_
                             : profile.working_set_bytes / kLineBytes,
                         profile.hot_set_ratio)),
      shared_(regionFor(profile.working_set_bytes / kLineBytes -
                            shared_base_,
                        profile.hot_set_ratio)),
      shared_coin_(0.25), hot_coin_(profile.hot_fraction),
      write_coin_(profile.write_ratio),
      sequential_coin_(profile.sequential_prob), run_length_(16)
{
}

WorkloadGenerator::Region
WorkloadGenerator::regionFor(uint64_t lines, double hot_set_ratio)
{
    return Region{FixedUniformInt(lines),
                  FixedUniformInt(hotLines(lines, hot_set_ratio))};
}

Addr
WorkloadGenerator::pickLine(int core)
{
    // The shared region holds at least a quarter of the working set
    // (>= 4 lines), so the coin alone decides it. Drawing the coin
    // first keeps the RNG stream of the original code.
    const bool shared = shared_coin_(rng_);
    const Region &region = shared ? shared_ : private_;
    const uint64_t base =
        shared ? shared_base_
               : private_lines_ * static_cast<uint64_t>(core);

    // Hot-set bias: a small fraction of the region absorbs most
    // accesses (temporal locality).
    const uint64_t idx =
        hot_coin_(rng_) ? region.hot(rng_) : region.all(rng_);
    return (base + idx) * kLineBytes;
}

MemRequest
WorkloadGenerator::next()
{
    int core = next_core_;
    if (++next_core_ == cores_)
        next_core_ = 0;

    MemRequest req;
    req.core = core;
    req.is_write = write_coin_(rng_);
    // Geometric gap with the configured mean, via the precomputed
    // inverse-CDF table (one uniform draw, as before).
    req.gap_instructions = gap_sampler_.sample(rng_.nextGrid());

    auto c = static_cast<size_t>(core);
    if (run_left_[c] > 0 && sequential_coin_(rng_)) {
        run_addr_[c] += kLineBytes;
        if (run_addr_[c] >= profile_.working_set_bytes)
            run_addr_[c] = 0;
        --run_left_[c];
    } else {
        run_addr_[c] = pickLine(core);
        run_left_[c] = static_cast<int>(run_length_(rng_)) + 1;
    }
    req.addr = run_addr_[c];
    return req;
}

RequestStream::RequestStream(const WorkloadProfile &profile, int cores,
                             uint64_t seed)
    : profile_(profile), cores_(cores), seed_(seed)
{
}

RequestStream::RequestStream(const std::vector<MemRequest> &trace)
    : trace_(&trace)
{
    if (trace.empty())
        rtm_panic("request stream: empty trace");
}

void
RequestStream::fill(MemRequest *out, size_t n)
{
    if (trace_) {
        // Copy up to the trace's end, then wrap: no modulo per request.
        const std::vector<MemRequest> &t = *trace_;
        while (n > 0) {
            const size_t run = std::min(n, t.size() - pos_);
            std::copy_n(t.begin() + static_cast<std::ptrdiff_t>(pos_),
                        run, out);
            out += run;
            n -= run;
            pos_ += run;
            if (pos_ == t.size())
                pos_ = 0;
        }
        return;
    }
    if (!gen_)
        gen_.emplace(profile_, cores_, seed_);
    for (size_t j = 0; j < n; ++j)
        out[j] = gen_->next();
}

bool
RequestStream::sameAs(const RequestStream &other) const
{
    if (trace_ || other.trace_)
        return trace_ == other.trace_;
    return profile_ == other.profile_ && cores_ == other.cores_ &&
           seed_ == other.seed_;
}

} // namespace rtm
