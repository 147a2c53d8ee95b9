/**
 * @file
 * Golden equivalence proof for the hot-loop overhaul.
 *
 * The optimized simulator (shift/mask caches, inverse-CDF gap
 * sampler, memoized shift planner) must be *bit-identical* to the
 * seed implementation — not approximately equal. Three layers of
 * evidence:
 *
 *  1. component equivalence: each optimized component against its
 *     frozen reference (tests/reference.hh) under randomized driving;
 *  2. end-to-end equivalence: simulate() against referenceSimulate()
 *     with every SimResult field compared exactly;
 *  3. pinned digests: SHA-256 over a full runMatrix sweep, compared
 *     against constants captured at pin time and across thread
 *     counts. Regenerate with RTM_UPDATE_GOLDEN=1 (the test prints
 *     the new constants and fails so stale pins cannot linger).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <vector>

#include "mem/cache.hh"
#include "mem/rm_bank.hh"
#include "model/tech.hh"
#include "sim/experiment.hh"
#include "reference.hh"
#include "sim/runner.hh"
#include "sim/system.hh"
#include "trace/workload.hh"
#include "util/hash.hh"
#include "util/parallel.hh"
#include "util/rng.hh"
#include "util/telemetry.hh"

namespace rtm
{
namespace
{

// --- 1. component equivalence ----------------------------------------

/** Drive Cache and RefCache with one random stream; flush both
 *  every `flush_period` accesses (0: never). */
void
fuzzCacheAgainstReference(uint64_t capacity, int ways, int line_bytes,
                          uint64_t seed, int flush_period = 0)
{
    Cache opt(capacity, ways, line_bytes);
    RefCache ref(capacity, ways, line_bytes);
    Rng rng(seed);
    uint64_t lines = capacity / static_cast<uint64_t>(line_bytes);
    // Span several tag aliases of every set, plus out-of-range
    // addresses exercising wide tags.
    uint64_t addr_space = lines * static_cast<uint64_t>(line_bytes) * 8;
    for (int i = 0; i < 20000; ++i) {
        Addr addr = rng.uniformInt(addr_space);
        bool is_write = rng.bernoulli(0.3);
        CacheAccessResult a = opt.access(addr, is_write);
        CacheAccessResult b = ref.access(addr, is_write);
        ASSERT_EQ(a.hit, b.hit) << "access " << i;
        ASSERT_EQ(a.writeback, b.writeback) << "access " << i;
        ASSERT_EQ(a.victim_addr, b.victim_addr) << "access " << i;
        ASSERT_EQ(a.frame_index, b.frame_index) << "access " << i;
        if (i % 17 == 0) {
            Addr probe = rng.uniformInt(addr_space);
            ASSERT_EQ(opt.contains(probe), ref.contains(probe));
        }
        if (flush_period > 0 && i % flush_period == flush_period - 1) {
            opt.flush();
            ref.flush();
        }
    }
    EXPECT_EQ(opt.stats().reads, ref.stats().reads);
    EXPECT_EQ(opt.stats().writes, ref.stats().writes);
    EXPECT_EQ(opt.stats().read_misses, ref.stats().read_misses);
    EXPECT_EQ(opt.stats().write_misses, ref.stats().write_misses);
    EXPECT_EQ(opt.stats().writebacks, ref.stats().writebacks);
}

/** Distinct tags into the empty sets of a `ways`-way cache land in
 *  ways 0, 1, 2, ... — the fill order the racetrack frame mapping
 *  depends on — and after a flush the same order repeats. */
void
expectEmptySetsFillInWayOrder(int ways)
{
    const uint64_t sets = 4;
    const uint64_t line = 64;
    Cache opt(sets * static_cast<uint64_t>(ways) * line, ways);
    RefCache ref(sets * static_cast<uint64_t>(ways) * line, ways);
    for (int round = 0; round < 2; ++round) {
        for (uint64_t set = 0; set < sets; ++set) {
            for (int w = 0; w < ways; ++w) {
                const Addr addr =
                    (static_cast<uint64_t>(w) * sets + set) * line;
                CacheAccessResult a = opt.access(addr, w % 2 == 1);
                CacheAccessResult b = ref.access(addr, w % 2 == 1);
                ASSERT_FALSE(a.hit);
                ASSERT_EQ(a.frame_index,
                          set * static_cast<uint64_t>(ways) +
                              static_cast<uint64_t>(w))
                    << ways << " ways, set " << set;
                ASSERT_EQ(a.frame_index, b.frame_index);
                ASSERT_FALSE(a.writeback);
            }
        }
        opt.flush();
        ref.flush();
    }
}

TEST(GoldenCache, MatchesReferenceAcrossGeometries)
{
    fuzzCacheAgainstReference(16 * 1024, 4, 64, 1);   // typical
    fuzzCacheAgainstReference(8 * 1024, 1, 64, 2);    // direct-mapped
    fuzzCacheAgainstReference(1024, 16, 64, 3);       // single set
    fuzzCacheAgainstReference(4096, 2, 32, 4);        // small lines
    fuzzCacheAgainstReference(64 * 1024, 16, 64, 5);  // LLC-like
    fuzzCacheAgainstReference(32 * 1024, 8, 64, 6);   // 8-way
    // Flushes return every set to its seed recency order mid-stream;
    // partly refilled sets then mix invalid and valid ways.
    fuzzCacheAgainstReference(16 * 1024, 4, 64, 7, 997);
    fuzzCacheAgainstReference(64 * 1024, 16, 64, 8, 3001);
    fuzzCacheAgainstReference(32 * 1024, 8, 64, 9, 1500);
    for (int ways : {1, 2, 4, 8, 16})
        expectEmptySetsFillInWayOrder(ways);
}

TEST(GoldenWorkload, StreamMatchesReferenceForAllProfiles)
{
    for (const WorkloadProfile &p : parsecProfiles()) {
        for (int cores : {1, 3, 4}) {
            WorkloadGenerator opt(p, cores, 42);
            RefWorkloadGenerator ref(p, cores, 42);
            for (int i = 0; i < 20000; ++i) {
                MemRequest a = opt.next();
                MemRequest b = ref.next();
                ASSERT_EQ(a.core, b.core)
                    << p.name << " cores=" << cores << " req " << i;
                ASSERT_EQ(a.addr, b.addr)
                    << p.name << " cores=" << cores << " req " << i;
                ASSERT_EQ(a.is_write, b.is_write)
                    << p.name << " cores=" << cores << " req " << i;
                ASSERT_EQ(a.gap_instructions, b.gap_instructions)
                    << p.name << " cores=" << cores << " req " << i;
            }
        }
    }
}

TEST(GoldenWorkload, GapSamplerMatchesLogFormula)
{
    constexpr double kUlp = 0x1.0p-53;
    constexpr uint64_t kGridMax = (1ull << 53) - 1;
    auto u = [](uint64_t m) { return static_cast<double>(m) * kUlp; };
    Rng rng(7);
    for (double mean : {2.5, 3.0, 3.5, 4.0, 5.0}) {
        GeometricGapSampler sampler(mean);
        for (int i = 0; i < 200000; ++i) {
            const uint64_t m = rng.nextGrid();
            ASSERT_EQ(sampler.sample(m),
                      GeometricGapSampler::reference(mean, u(m)))
                << "mean " << mean << " m " << m;
        }
        // Both sides of every threshold: the last grid index of one
        // gap value and the first of the next.
        for (uint64_t a : sampler.thresholds()) {
            ASSERT_GT(a, 0u);
            EXPECT_EQ(sampler.sample(a - 1),
                      GeometricGapSampler::reference(mean, u(a - 1)))
                << "mean " << mean << " below threshold " << a;
            EXPECT_EQ(sampler.sample(a),
                      GeometricGapSampler::reference(mean, u(a)))
                << "mean " << mean << " at threshold " << a;
        }
        // Grid extremes: m = 0 and the largest index.
        EXPECT_EQ(sampler.sample(0),
                  GeometricGapSampler::reference(mean, 0.0));
        EXPECT_EQ(sampler.sample(kGridMax),
                  GeometricGapSampler::reference(mean, u(kGridMax)));
    }
}

TEST(GoldenRmBank, MemoMatchesLivePlanning)
{
    PaperCalibratedErrorModel model;
    TechParams tech = l3For(MemTech::Racetrack);
    for (Scheme scheme :
         {Scheme::Baseline, Scheme::SecdedPecc, Scheme::PeccO,
          Scheme::PeccSWorst, Scheme::PeccSAdaptive}) {
        for (HeadPolicy hp : {HeadPolicy::Stay, HeadPolicy::Center}) {
            RmBankConfig cfg;
            cfg.line_frames = 4096;
            cfg.scheme = scheme;
            cfg.head_policy = hp;
            cfg.interleave_ways = 2;
            cfg.use_plan_memo = true;
            RmBankConfig legacy_cfg = cfg;
            legacy_cfg.use_plan_memo = false;

            RmBank memo(cfg, &model, tech);
            RmBank live(legacy_cfg, &model, tech);
            ASSERT_TRUE(memo.planMemoEnabled());
            ASSERT_FALSE(live.planMemoEnabled());

            Rng rng(1234);
            Cycles now = 0;
            for (int i = 0; i < 5000; ++i) {
                uint64_t frame = rng.uniformInt(cfg.line_frames);
                // Occasional long idle gaps trigger head drift.
                Cycles gap = rng.bernoulli(0.05)
                                 ? 500 + rng.uniformInt(4000)
                                 : rng.uniformInt(64);
                ShiftCost a = memo.accessFrame(frame, now);
                ShiftCost b = live.accessFrame(frame, now);
                ASSERT_EQ(a.latency, b.latency) << "access " << i;
                ASSERT_EQ(a.stall, b.stall) << "access " << i;
                ASSERT_EQ(a.energy, b.energy) << "access " << i;
                ASSERT_EQ(a.total_steps, b.total_steps);
                ASSERT_EQ(a.sub_shifts, b.sub_shifts);
                now += a.latency + gap;
            }
            const RmBankStats &ms = memo.stats();
            const RmBankStats &ls = live.stats();
            EXPECT_EQ(ms.accesses, ls.accesses);
            EXPECT_EQ(ms.shift_ops, ls.shift_ops);
            EXPECT_EQ(ms.shift_steps, ls.shift_steps);
            EXPECT_EQ(ms.shift_cycles, ls.shift_cycles);
            EXPECT_EQ(ms.shift_energy, ls.shift_energy);
            EXPECT_EQ(ms.reliability.expectedSdc(),
                      ls.reliability.expectedSdc());
            EXPECT_EQ(ms.reliability.expectedDue(),
                      ls.reliability.expectedDue());
            EXPECT_GT(ms.plan_memo_hits, 0u);
            EXPECT_EQ(ls.plan_memo_hits, 0u);
        }
    }
}

TEST(GoldenRmBank, MemoMatchesLivePlanningUnderDegradation)
{
    // The campaign's bank drill: accelerated rates, injected DUE
    // reports retiring groups and remapping their frames mid-run.
    // The memo key (distance, interval bucket, protection domain)
    // never reads degradation state, so the memo must still match
    // live planning access for access.
    auto base = std::make_shared<PaperCalibratedErrorModel>();
    ScaledErrorModel model(base, 2000.0);
    TechParams tech = l3For(MemTech::Racetrack);
    RmBankConfig cfg;
    cfg.line_frames = 1024;
    cfg.scheme = Scheme::PeccSAdaptive;
    cfg.group_retry_budget = 2;
    RmBankConfig live_cfg = cfg;
    live_cfg.use_plan_memo = false;

    RmBank memo(cfg, &model, tech);
    RmBank live(live_cfg, &model, tech);
    Rng rng(31337);
    Cycles now = 0;
    for (int i = 0; i < 3000; ++i) {
        uint64_t frame = rng.uniformInt(cfg.line_frames);
        ShiftCost a = memo.accessFrame(frame, now);
        ShiftCost b = live.accessFrame(frame, now);
        ASSERT_EQ(a.latency, b.latency) << "access " << i;
        ASSERT_EQ(a.stall, b.stall) << "access " << i;
        ASSERT_EQ(a.energy, b.energy) << "access " << i;
        ASSERT_EQ(a.total_steps, b.total_steps) << "access " << i;
        ASSERT_EQ(a.sub_shifts, b.sub_shifts) << "access " << i;
        now += a.latency + 4;
        if (rng.bernoulli(0.01)) {
            ASSERT_EQ(memo.reportUnrecoverable(frame),
                      live.reportUnrecoverable(frame))
                << "access " << i;
        }
    }
    const RmBankStats &ms = memo.stats();
    const RmBankStats &ls = live.stats();
    EXPECT_EQ(ms.accesses, ls.accesses);
    EXPECT_EQ(ms.shift_ops, ls.shift_ops);
    EXPECT_EQ(ms.shift_steps, ls.shift_steps);
    EXPECT_EQ(ms.shift_cycles, ls.shift_cycles);
    EXPECT_EQ(ms.shift_energy, ls.shift_energy);
    EXPECT_EQ(ms.reliability.expectedSdc(),
              ls.reliability.expectedSdc());
    EXPECT_EQ(ms.reliability.expectedDue(),
              ls.reliability.expectedDue());
    EXPECT_EQ(ms.due_reports, ls.due_reports);
    EXPECT_EQ(ms.degraded_groups, ls.degraded_groups);
    EXPECT_EQ(ms.remapped_accesses, ls.remapped_accesses);
    EXPECT_EQ(memo.degradedCapacityFraction(),
              live.degradedCapacityFraction());
    // The drill must actually have degraded, or it proves nothing.
    EXPECT_GT(ms.degraded_groups, 0u);
    EXPECT_GT(ms.remapped_accesses, 0u);
    EXPECT_GT(ms.plan_memo_hits, 0u);
    EXPECT_EQ(ls.plan_memo_hits, 0u);
    EXPECT_EQ(memo.ledgerViolation(), "");
    EXPECT_EQ(live.ledgerViolation(), "");
}

// --- 2. end-to-end equivalence ---------------------------------------

void
expectResultsIdentical(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.llc_tech, b.llc_tech);
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.mem_ops, b.mem_ops);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.cache_dynamic_energy, b.cache_dynamic_energy);
    EXPECT_EQ(a.llc_shift_energy, b.llc_shift_energy);
    EXPECT_EQ(a.dram_energy, b.dram_energy);
    EXPECT_EQ(a.leakage_energy, b.leakage_energy);
    EXPECT_EQ(a.llc_accesses, b.llc_accesses);
    EXPECT_EQ(a.llc_misses, b.llc_misses);
    EXPECT_EQ(a.dram_accesses, b.dram_accesses);
    EXPECT_EQ(a.shift_ops, b.shift_ops);
    EXPECT_EQ(a.shift_steps, b.shift_steps);
    EXPECT_EQ(a.shift_cycles, b.shift_cycles);
    EXPECT_EQ(a.sdc_mttf, b.sdc_mttf);
    EXPECT_EQ(a.due_mttf, b.due_mttf);
}

TEST(GoldenSim, SimulateMatchesReferenceSimulate)
{
    PaperCalibratedErrorModel model;
    constexpr uint64_t kDivisor = 32;
    struct Option
    {
        MemTech tech;
        Scheme scheme;
    };
    const Option options[] = {
        {MemTech::SRAM, Scheme::Baseline},
        {MemTech::STTRAM, Scheme::Baseline},
        {MemTech::RacetrackIdeal, Scheme::Baseline},
        {MemTech::Racetrack, Scheme::Baseline},
        {MemTech::Racetrack, Scheme::PeccO},
        {MemTech::Racetrack, Scheme::PeccSWorst},
        {MemTech::Racetrack, Scheme::PeccSAdaptive},
    };
    for (const char *workload : {"canneal", "swaptions"}) {
        WorkloadProfile profile =
            scaledProfile(parsecProfile(workload), kDivisor);
        for (const Option &opt : options) {
            SimConfig cfg;
            cfg.hierarchy.llc_tech = opt.tech;
            cfg.hierarchy.scheme = opt.scheme;
            cfg.hierarchy.capacity_divisor = kDivisor;
            cfg.mem_requests = 8000;
            cfg.warmup_requests = 2000;
            SimResult a = simulate(profile, cfg, &model);
            SimResult b = referenceSimulate(profile, cfg, &model);
            expectResultsIdentical(a, b);
        }
    }
}

// --- 3. pinned digests -----------------------------------------------

constexpr uint64_t kGoldenRequests = 6000;
constexpr uint64_t kGoldenWarmup = 1000;
constexpr uint64_t kGoldenDivisor = 32;

/**
 * Pinned SHA-256 digests of the full runMatrix sweep, one per
 * standardLlcOptions() column plus a combined digest. Captured with
 * RTM_UPDATE_GOLDEN=1 on the optimized implementation after proving
 * it bit-identical to the seed reference above.
 */
const char *const kGoldenOptionHashes[] = {
    "6628be33ca3b0930995a871a2509e0e602bf9c9e54f09bb92372ff483d04e9f5", // SRAM
    "60490657571e99f1531cbbe5c32f31913efa5666fbf319016b14ece439a20b9f", // STT-RAM
    "ccb2899f86c9054f07670cf54e4896c8ac7a143e7ca32564496c98ea06611e77", // RM-Ideal
    "d087db6dfaa67564f44f7676c722c24d3262198155942c621082ed8258ef85c0", // RM w/o p-ECC
    "61dd37afb8d101173c04ddda6c6f4aa42185de3d4fe5ef19aecff057e2e0ad0f", // RM p-ECC-O
    "34ee08f170671e73c861d3967fb41e364757618b8904e4435f964d7c0c26198f", // RM p-ECC-S adaptive
    "91dd54607e3785649afb09490a4f9bf3878e728838b93a89adf1be08c4f2992f", // RM p-ECC-S worst
};
const char *const kGoldenCombinedHash =
    "7017ee33c91401fb7af3a9b0c71df686418b5d9a0abb101a02ceee3e6bb413fe";

void
hashResult(Sha256 &h, const SimResult &r)
{
    h.updateString(r.workload);
    h.updateValue(static_cast<int32_t>(r.llc_tech));
    h.updateValue(static_cast<int32_t>(r.scheme));
    h.updateValue(r.instructions);
    h.updateValue(r.mem_ops);
    h.updateValue(r.cycles);
    h.updateValue(r.seconds);
    h.updateValue(r.cache_dynamic_energy);
    h.updateValue(r.llc_shift_energy);
    h.updateValue(r.dram_energy);
    h.updateValue(r.leakage_energy);
    h.updateValue(r.llc_accesses);
    h.updateValue(r.llc_misses);
    h.updateValue(r.dram_accesses);
    h.updateValue(r.shift_ops);
    h.updateValue(r.shift_steps);
    h.updateValue(r.shift_cycles);
    h.updateValue(r.sdc_mttf);
    h.updateValue(r.due_mttf);
}

std::vector<std::string>
matrixHashes(const std::vector<WorkloadMatrixRow> &rows,
             size_t options)
{
    std::vector<std::string> hashes;
    Sha256 combined;
    for (size_t o = 0; o < options; ++o) {
        Sha256 h;
        for (const WorkloadMatrixRow &row : rows) {
            hashResult(h, row.results[o]);
            hashResult(combined, row.results[o]);
        }
        hashes.push_back(h.hexDigest());
    }
    hashes.push_back(combined.hexDigest());
    return hashes;
}

TEST(GoldenSim, MatrixDigestsMatchPins)
{
    PaperCalibratedErrorModel model;
    auto options = standardLlcOptions();
    auto rows = runMatrix(options, &model, kGoldenRequests,
                          kGoldenWarmup, kGoldenDivisor);
    auto hashes = matrixHashes(rows, options.size());
    ASSERT_EQ(hashes.size(), options.size() + 1);

    if (std::getenv("RTM_UPDATE_GOLDEN")) {
        printf("const char *const kGoldenOptionHashes[] = {\n");
        for (size_t o = 0; o < options.size(); ++o)
            printf("    \"%s\", // %s\n", hashes[o].c_str(),
                   options[o].label.c_str());
        printf("};\nconst char *const kGoldenCombinedHash =\n"
               "    \"%s\";\n",
               hashes.back().c_str());
        FAIL() << "RTM_UPDATE_GOLDEN set: paste the printed pins "
                  "into tests/sim_golden_test.cc and re-run";
    }
    for (size_t o = 0; o < options.size(); ++o)
        EXPECT_EQ(hashes[o], kGoldenOptionHashes[o])
            << "option " << options[o].label;
    EXPECT_EQ(hashes.back(), kGoldenCombinedHash);
}

TEST(GoldenSim, TelemetryOnDoesNotPerturbResults)
{
    // Instrumentation only *reads* simulator state, so a fully
    // instrumented sweep must reproduce the telemetry-off sweep bit
    // for bit: every SimResult field equal and the SHA-256 digests
    // still matching the pinned constants.
    PaperCalibratedErrorModel model;
    auto options = standardLlcOptions();

    auto plain = runMatrix(options, &model, kGoldenRequests,
                           kGoldenWarmup, kGoldenDivisor);
    Telemetry telemetry(1 << 14);
    auto traced = runMatrix(options, &model, kGoldenRequests,
                            kGoldenWarmup, kGoldenDivisor,
                            &telemetry);

    ASSERT_EQ(plain.size(), traced.size());
    for (size_t w = 0; w < plain.size(); ++w) {
        ASSERT_EQ(plain[w].results.size(),
                  traced[w].results.size());
        for (size_t o = 0; o < plain[w].results.size(); ++o)
            expectResultsIdentical(plain[w].results[o],
                                   traced[w].results[o]);
    }

    auto traced_hashes = matrixHashes(traced, options.size());
    for (size_t o = 0; o < options.size(); ++o)
        EXPECT_EQ(traced_hashes[o], kGoldenOptionHashes[o])
            << "option " << options[o].label << " (telemetry on)";
    EXPECT_EQ(traced_hashes.back(), kGoldenCombinedHash);

    // And the sink actually observed the sweep: one sim.requests
    // increment of kGoldenRequests per cell, shift events from the
    // racetrack options, per-cell wall-clock spans.
    const size_t cells = plain.size() * options.size();
    EXPECT_EQ(telemetry.counters().at("sim.requests").value(),
              cells * kGoldenRequests);
    EXPECT_EQ(telemetry.counters().at("runner.cells").value(), cells);
    EXPECT_EQ(telemetry.eventCount(EventKind::Span),
              static_cast<uint64_t>(cells));
    EXPECT_GT(telemetry.eventCount(EventKind::ShiftIssued), 0u);
}

TEST(GoldenSim, SpecDrivenMatrixMatchesPins)
{
    // A declarative ExperimentSpec scheduled on the shared
    // ExperimentEngine must reproduce the pinned digests exactly —
    // at one thread, a fixed small count, and the configured count.
    ExperimentSpec spec;
    spec.matrix.requests = kGoldenRequests;
    spec.matrix.warmup = kGoldenWarmup;
    spec.matrix.divisor = kGoldenDivisor;
    normalizeExperimentSpec(&spec);
    auto options = standardLlcOptions();
    ASSERT_EQ(spec.matrix.options.size(), options.size());

    PaperCalibratedErrorModel model;
    for (unsigned threads :
         {1u, 4u, ThreadPool::configuredThreads()}) {
        ThreadPool::setGlobalThreads(threads);
        ExperimentResult res = runExperiment(spec, &model);
        EXPECT_EQ(res.cells,
                  parsecProfiles().size() * options.size());
        auto hashes = matrixHashes(res.matrix, options.size());
        for (size_t o = 0; o < options.size(); ++o)
            EXPECT_EQ(hashes[o], kGoldenOptionHashes[o])
                << "option " << options[o].label << " at "
                << threads << " thread(s)";
        EXPECT_EQ(hashes.back(), kGoldenCombinedHash)
            << threads << " thread(s)";
    }
    ThreadPool::setGlobalThreads(ThreadPool::configuredThreads());
}

TEST(GoldenSim, ExplicitStaticPlacementMatchesPins)
{
    // The placement refactor routed every slot lookup through a
    // policy object. Spelling the default out loud — static
    // placement, stay heads, non-default bookkeeping knobs that
    // static must ignore — has to reproduce the pinned digests
    // bit for bit.
    PaperCalibratedErrorModel model;
    auto options = standardLlcOptions();
    for (auto &o : options) {
        o.placement = PlacementKind::Static;
        o.head_policy = HeadPolicy::Stay;
        o.placement_epoch = 16;
        o.placement_swap_budget = 1;
    }
    auto rows = runMatrix(options, &model, kGoldenRequests,
                          kGoldenWarmup, kGoldenDivisor);
    auto hashes = matrixHashes(rows, options.size());
    for (size_t o = 0; o < options.size(); ++o)
        EXPECT_EQ(hashes[o], kGoldenOptionHashes[o])
            << "option " << options[o].label;
    EXPECT_EQ(hashes.back(), kGoldenCombinedHash);
}

TEST(GoldenSim, MatrixDigestsStableAcrossThreadCounts)
{
    PaperCalibratedErrorModel model;
    auto options = standardLlcOptions();

    ThreadPool::setGlobalThreads(1);
    auto serial = matrixHashes(
        runMatrix(options, &model, kGoldenRequests, kGoldenWarmup,
                  kGoldenDivisor),
        options.size());
    ThreadPool::setGlobalThreads(3);
    auto parallel = matrixHashes(
        runMatrix(options, &model, kGoldenRequests, kGoldenWarmup,
                  kGoldenDivisor),
        options.size());
    ThreadPool::setGlobalThreads(ThreadPool::configuredThreads());

    EXPECT_EQ(serial, parallel);
}

TEST(GoldenSim, Fig16SpecWithoutShiftCodesKeepsThePinnedDigests)
{
    // Guard for the shift-code family introduction: the shipped
    // fig16 spec selects the paper's standard catalogue only, and as
    // long as the new schemes (lm-pos, del-ins-k) are absent from a
    // spec, every pre-existing digest must stay bit-identical. A
    // change here means the new codecs leaked into the legacy
    // simulation path.
    ExperimentSpec spec;
    std::string diag;
    const std::string path = std::string(RTM_REPO_DIR) +
                             "/examples/specs/fig16.json";
    ASSERT_TRUE(loadExperimentSpec(path, &spec, &diag)) << diag;
    const auto standard = standardLlcOptions();
    ASSERT_EQ(spec.matrix.options.size(), standard.size());
    for (size_t o = 0; o < standard.size(); ++o)
        EXPECT_TRUE(spec.matrix.options[o] == standard[o])
            << "option " << standard[o].label;

    // The shipped request count is bench-sized; the digest pins are
    // defined at the golden parameters.
    spec.matrix.requests = kGoldenRequests;
    spec.matrix.warmup = kGoldenWarmup;
    spec.matrix.divisor = kGoldenDivisor;

    PaperCalibratedErrorModel model;
    ExperimentResult res = runExperiment(spec, &model);
    auto hashes = matrixHashes(res.matrix, standard.size());
    for (size_t o = 0; o < standard.size(); ++o)
        EXPECT_EQ(hashes[o], kGoldenOptionHashes[o])
            << "option " << standard[o].label;
    EXPECT_EQ(hashes.back(), kGoldenCombinedHash);
}

/**
 * Pinned digests for the shift-code family itself: a small matrix
 * (two workloads x shiftCodeLlcOptions()) at the golden parameters.
 * Captured with RTM_UPDATE_GOLDEN=1; freezes the end-to-end
 * behaviour of the lm-pos and del-ins-k schemes.
 */
const char *const kGoldenShiftCodeHashes[] = {
    "9d77b9ea01da96a724fef20784128da38a8ddb850261caf6131b3f744e584002", // RM p-ECC-S adaptive
    "28ef5b81ced0f9feabd2e2a9c037865da5d992f74db502781dc9fb56f160d4b6", // RM lm-pos
    "a7383a3e05b32daaab3640e85aec0a71faeae998395317a6c4912019708eca80", // RM del-ins-k
};
const char *const kGoldenShiftCodeCombinedHash =
    "ff793f953a0c068bee08b11090b43abaa978aedd2629356b6124353ceb56c9f7";

TEST(GoldenSim, ShiftCodeMatrixDigestsMatchPins)
{
    ExperimentSpec spec;
    spec.matrix.requests = kGoldenRequests;
    spec.matrix.warmup = kGoldenWarmup;
    spec.matrix.divisor = kGoldenDivisor;
    spec.matrix.workloads = {"blackscholes", "canneal"};
    spec.matrix.options = shiftCodeLlcOptions();
    normalizeExperimentSpec(&spec);
    const auto options = shiftCodeLlcOptions();
    ASSERT_EQ(spec.matrix.options.size(), options.size());

    PaperCalibratedErrorModel model;
    ExperimentResult res = runExperiment(spec, &model);
    ASSERT_EQ(res.matrix.size(), spec.matrix.workloads.size());
    auto hashes = matrixHashes(res.matrix, options.size());

    if (std::getenv("RTM_UPDATE_GOLDEN")) {
        printf("const char *const kGoldenShiftCodeHashes[] = {\n");
        for (size_t o = 0; o < options.size(); ++o)
            printf("    \"%s\", // %s\n", hashes[o].c_str(),
                   options[o].label.c_str());
        printf("};\nconst char *const "
               "kGoldenShiftCodeCombinedHash =\n    \"%s\";\n",
               hashes.back().c_str());
        FAIL() << "RTM_UPDATE_GOLDEN set: paste the printed pins "
                  "into tests/sim_golden_test.cc and re-run";
    }
    for (size_t o = 0; o < options.size(); ++o)
        EXPECT_EQ(hashes[o], kGoldenShiftCodeHashes[o])
            << "option " << options[o].label;
    EXPECT_EQ(hashes.back(), kGoldenShiftCodeCombinedHash);
}

/**
 * Pinned digests for the racetrack schemes no other pin covers: the
 * STS driver alone, SED p-ECC and SECDED p-ECC (unconstrained
 * distance) on the same small matrix as the shift-code pin. Freezes
 * their shift timing, in-path check and Table 5 energy end to end.
 */
const char *const kGoldenCodeSchemeHashes[] = {
    "6030fad6d1a754d6b519ad101f8cbc2378a4f416547ba3bce6a7637e85b679a1", // RM STS
    "60541c81257836ea24382a17fc938f39de63b6d2fcae2936d0f9f69a5b272754", // RM SED p-ECC
    "b7f6f915f25fede670c7bebf27433150788a5a0913af35e389cecc871eb50878", // RM SECDED p-ECC
};
const char *const kGoldenCodeSchemeCombinedHash =
    "e0365247d5222ef26574c3fc1a5cdb08ee944cb02c19e7beb077c3ac7b80cbf0";

TEST(GoldenSim, CodeSchemeMatrixDigestsMatchPins)
{
    const std::vector<LlcOption> options = {
        {"RM STS", MemTech::Racetrack, Scheme::Sts},
        {"RM SED p-ECC", MemTech::Racetrack, Scheme::SedPecc},
        {"RM SECDED p-ECC", MemTech::Racetrack, Scheme::SecdedPecc},
    };
    ExperimentSpec spec;
    spec.matrix.requests = kGoldenRequests;
    spec.matrix.warmup = kGoldenWarmup;
    spec.matrix.divisor = kGoldenDivisor;
    spec.matrix.workloads = {"blackscholes", "canneal"};
    spec.matrix.options = options;
    normalizeExperimentSpec(&spec);
    ASSERT_EQ(spec.matrix.options.size(), options.size());

    PaperCalibratedErrorModel model;
    ExperimentResult res = runExperiment(spec, &model);
    ASSERT_EQ(res.matrix.size(), spec.matrix.workloads.size());
    auto hashes = matrixHashes(res.matrix, options.size());

    if (std::getenv("RTM_UPDATE_GOLDEN")) {
        printf("const char *const kGoldenCodeSchemeHashes[] = {\n");
        for (size_t o = 0; o < options.size(); ++o)
            printf("    \"%s\", // %s\n", hashes[o].c_str(),
                   options[o].label.c_str());
        printf("};\nconst char *const "
               "kGoldenCodeSchemeCombinedHash =\n    \"%s\";\n",
               hashes.back().c_str());
        FAIL() << "RTM_UPDATE_GOLDEN set: paste the printed pins "
                  "into tests/sim_golden_test.cc and re-run";
    }
    for (size_t o = 0; o < options.size(); ++o)
        EXPECT_EQ(hashes[o], kGoldenCodeSchemeHashes[o])
            << "option " << options[o].label;
    EXPECT_EQ(hashes.back(), kGoldenCodeSchemeCombinedHash);
}

// --- 4. fast-tier pins -----------------------------------------------

/**
 * The fast Monte-Carlo tier is NOT bit-identical to the scalar
 * reference (it reorders draws), so the matrix pins above say
 * nothing about it. It carries its own pinned digest instead: the
 * output is a pure function of (seed, distance, trials), stable
 * across thread counts, and this test freezes it. Regenerate with
 * RTM_UPDATE_GOLDEN=1 after an intentional fast-path change.
 */
const char *const kGoldenFastMcHash =
    "9acd9e237bf8ea72c781f0657d145a86c6e351b78ed97582c240cfc8d58a196e";

std::string
fastMcDigest(unsigned threads)
{
    ThreadPool::setGlobalThreads(threads);
    PositionErrorMonteCarlo mc(DeviceParams{}, 12345,
                               McTier::Fast);
    ErrorPdf pdf = mc.run(7, 100003);
    ThreadPool::setGlobalThreads(ThreadPool::configuredThreads());
    Sha256 h;
    h.updateValue(static_cast<int32_t>(pdf.distance));
    h.updateValue(pdf.trials);
    for (const auto &kv : pdf.step_counts.entries()) {
        h.updateValue(kv.first);
        h.updateValue(kv.second);
    }
    for (const auto &kv : pdf.middle_counts.entries()) {
        h.updateValue(kv.first);
        h.updateValue(kv.second);
    }
    h.updateValue(pdf.deviation.count());
    h.updateValue(pdf.deviation.mean());
    h.updateValue(pdf.deviation.stddev());
    return h.hexDigest();
}

TEST(GoldenSim, FastTierDigestMatchesPinAcrossThreadCounts)
{
    std::string serial = fastMcDigest(1);
    std::string parallel = fastMcDigest(3);
    EXPECT_EQ(serial, parallel);

    if (std::getenv("RTM_UPDATE_GOLDEN")) {
        printf("const char *const kGoldenFastMcHash =\n"
               "    \"%s\";\n",
               serial.c_str());
        FAIL() << "RTM_UPDATE_GOLDEN set: paste the printed pin "
                  "into tests/sim_golden_test.cc and re-run";
    }
    EXPECT_EQ(serial, kGoldenFastMcHash);
}

// --- 5. fault-drill pins ---------------------------------------------

/**
 * The fault drills (campaign cells with their bank degradation
 * drill, and the stripe stress drill) sample injected shift outcomes
 * and fold analytic expectations; every table they are served from
 * must reproduce the live computation bit for bit. Six specs freeze
 * them: the standard campaign on two workloads plus a del-ins-k
 * stress drill, and secded, p-ECC-O, lm-pos, unprotected baseline
 * and SED stress drills (every scheme that has a drill). The
 * p-ECC-O drill decodes the left window on every left step and
 * maintains the end code with shift-and-write; the lm-pos drill
 * decodes the widened limited-magnitude window. Regenerate with
 * RTM_UPDATE_GOLDEN=1 after an intentional change to the drills.
 */
const char *const kGoldenFaultDrillHashes[] = {
    "70af62c1f096a8aa271707bb70b8f9c7da8edef162e7fb1a8ab6e4a682728632", // golden-fault-drill
    "6b13154edbf953f26836b1614b04b59a1ae1020fb45e21035339c1dc9c157b13", // golden-secded-stress
    "e6d976fb90ee15d956fb7e92448638b2cdbb98bd54c2683ea8c48696a0dd365b", // golden-pecc-o-stress
    "0f6261b52ff12bd0011043342e120aadcf616aa5e72e85d8b7e4b2bb913769b1", // golden-lm-pos-stress
    "b8ff48ff0100ea720def0a31e8b061cb92cca0655950c530015ca52c707248d0", // golden-baseline-stress
    "5bf6f82c947f33bd472dd93973dd0dc8d7746fa852fdbf0504d2c5fb02f98d4e", // golden-sed-stress
};

std::vector<ExperimentSpec>
faultDrillSpecs()
{
    ExperimentSpec campaign;
    campaign.name = "golden-fault-drill";
    campaign.matrix.enabled = false;
    campaign.campaign.enabled = true;
    campaign.campaign.config.accesses_per_cell = 1500;
    campaign.campaign.config.seed = 4242;
    campaign.campaign.workloads = {"swaptions", "canneal"};
    campaign.stress.enabled = true;
    campaign.stress.scheme = "del-ins-k";
    campaign.stress.scale = 50.0;
    campaign.stress.ops = 3000;
    campaign.stress.seed = 42;

    ExperimentSpec secded;
    secded.name = "golden-secded-stress";
    secded.matrix.enabled = false;
    secded.stress.enabled = true;
    secded.stress.scheme = "secded";
    secded.stress.scale = 500.0;
    secded.stress.ops = 20000;
    secded.stress.seed = 3;

    ExperimentSpec pecc_o = secded;
    pecc_o.name = "golden-pecc-o-stress";
    pecc_o.stress.scheme = "pecc-o";
    pecc_o.stress.ops = 5000;
    pecc_o.stress.seed = 5;

    ExperimentSpec lm_pos = secded;
    lm_pos.name = "golden-lm-pos-stress";
    lm_pos.stress.scheme = "lm-pos";
    lm_pos.stress.seed = 7;

    ExperimentSpec baseline = secded;
    baseline.name = "golden-baseline-stress";
    baseline.stress.scheme = "baseline";
    baseline.stress.ops = 5000;
    baseline.stress.seed = 11;

    ExperimentSpec sed = secded;
    sed.name = "golden-sed-stress";
    sed.stress.scheme = "sed";
    sed.stress.seed = 13;
    return {campaign, secded, pecc_o, lm_pos, baseline, sed};
}

TEST(GoldenCampaign, FaultDrillDigestsPinned)
{
    const std::vector<ExperimentSpec> specs = faultDrillSpecs();
    std::vector<std::string> digests;
    for (const ExperimentSpec &spec : specs) {
        ExperimentResult res = runExperiment(spec);
        ASSERT_TRUE(res.complete()) << spec.name;
        ASSERT_TRUE(res.has_stress) << spec.name;
        ASSERT_EQ(res.has_campaign, spec.campaign.enabled)
            << spec.name;
        digests.push_back(experimentResultDigest(res));
    }

    if (std::getenv("RTM_UPDATE_GOLDEN")) {
        printf("const char *const kGoldenFaultDrillHashes[] = {\n");
        for (size_t i = 0; i < digests.size(); ++i)
            printf("    \"%s\", // %s\n", digests[i].c_str(),
                   specs[i].name.c_str());
        printf("};\n");
        FAIL() << "RTM_UPDATE_GOLDEN set: paste the printed pins "
                  "into tests/sim_golden_test.cc and re-run";
    }
    for (size_t i = 0; i < digests.size(); ++i)
        EXPECT_EQ(digests[i], kGoldenFaultDrillHashes[i])
            << specs[i].name;
}

} // namespace
} // namespace rtm
