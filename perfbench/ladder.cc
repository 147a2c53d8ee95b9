#include "ladder.hh"

#include <algorithm>
#include <cmath>
#include <memory>

#include "codec/protected_stripe.hh"
#include "device/fault_scenario.hh"
#include "device/montecarlo.hh"
#include "mem/hierarchy.hh"
#include "model/reliability.hh"
#include "model/tech.hh"
#include "sim/campaign.hh"
#include "sim/system.hh"
#include "trace/workload.hh"
#include "util/journal.hh"
#include "util/rng.hh"

namespace perfbench
{

using namespace rtm;

namespace
{

/** Requests generated and then served per replay chunk. */
constexpr uint64_t kChunk = 8192;
/** Every kSampleStride-th replayed access is also timed alone. */
constexpr uint64_t kSampleStride = 64;

/**
 * The campaign's per-cell seed derivation (SplitMix64 finaliser over
 * the campaign seed and the cell index), as appendCampaignJobs and
 * runFaultDrill apply it.
 */
uint64_t
mixSeed(uint64_t seed, uint64_t index)
{
    uint64_t z = seed + (index + 1) * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** The SimConfig appendMatrixJobs builds for one matrix cell. */
SimConfig
matrixCellConfig(const ExperimentSpec &spec, const LlcOption &opt)
{
    SimConfig cfg;
    cfg.hierarchy.llc_tech = opt.tech;
    cfg.hierarchy.scheme = opt.scheme;
    cfg.hierarchy.head_policy = opt.head_policy;
    cfg.hierarchy.placement.kind = opt.placement;
    cfg.hierarchy.placement.epoch_accesses = opt.placement_epoch;
    cfg.hierarchy.placement.swap_budget = opt.placement_swap_budget;
    cfg.hierarchy.capacity_divisor = spec.matrix.divisor;
    cfg.hierarchy.protection = spec.protection;
    cfg.mem_requests = spec.matrix.requests;
    cfg.warmup_requests = spec.matrix.warmup;
    cfg.seed = spec.matrix.seed;
    return cfg;
}

Level
deepestLevel(const HierarchyAccess &acc)
{
    if (acc.dram_access)
        return kDram;
    if (acc.l3_hit)
        return kL3;
    if (acc.l2_hit)
        return kL2;
    return kL1;
}

void
expectEqual(const char *what, const std::string &cell, uint64_t got,
            uint64_t want, LayerFigures *out)
{
    if (got != want)
        out->failures.push_back(cell + ": replay " + what + " " +
                                std::to_string(got) + " != " +
                                std::to_string(want));
}

/** Counters a SimResult reports, as the replay recomputes them. */
struct ReplayCounters
{
    uint64_t llc_accesses = 0;
    uint64_t llc_misses = 0;
    uint64_t dram_accesses = 0;
    uint64_t shift_ops = 0;
    uint64_t shift_steps = 0;
    uint64_t migrations = 0;
    uint64_t redundancy_accesses = 0;
    Cycles cycles = 0;
};

/**
 * Replay simulate()'s request loop for one cell with the generator
 * and the hierarchy timed apart, mirroring runSim's warmup snapshot
 * and per-core clocks so the counters must match exactly.
 */
ReplayCounters
replayMatrixCell(Tracer &tracer, int64_t cell, const WorkloadProfile &profile,
                 const SimConfig &cfg, const PositionErrorModel *model,
                 LayerFigures *out)
{
    std::unique_ptr<Hierarchy> hierarchy;
    out->hierarchy_build_ns += tracer.time(
        "mem.hierarchy_build", cell, [&] {
            hierarchy = std::make_unique<Hierarchy>(cfg.hierarchy, model);
        });
    WorkloadGenerator gen(profile, cfg.hierarchy.cores, cfg.seed);
    std::vector<Cycles> core_time(
        static_cast<size_t>(cfg.hierarchy.cores), 0);
    std::vector<MemRequest> chunk(kChunk);

    const uint64_t warmup = cfg.warmup_requests;
    const uint64_t total = warmup + cfg.mem_requests;
    uint64_t warm_l3_acc = 0, warm_l3_miss = 0, warm_dram = 0;
    RmBankStats warm_rm;
    std::vector<Cycles> start_time = core_time;
    auto snapshot = [&] {
        warm_l3_acc = hierarchy->l3().stats().accesses();
        warm_l3_miss = hierarchy->l3().stats().misses();
        warm_dram = hierarchy->dramAccesses();
        if (hierarchy->rmBank())
            warm_rm = hierarchy->rmBank()->stats();
        start_time = core_time;
    };
    if (warmup == 0)
        snapshot();

    uint64_t i = 0;
    while (i < total) {
        // Chunks end at the warmup boundary so the snapshot lands
        // exactly where runSim takes it.
        const uint64_t limit = i < warmup ? warmup : total;
        const size_t n = static_cast<size_t>(
            std::min<uint64_t>(kChunk, limit - i));
        out->gen_ns += tracer.time("trace.gen", cell, [&] {
            for (size_t k = 0; k < n; ++k)
                chunk[k] = gen.next();
        });
        out->hierarchy_ns += tracer.time("mem.hierarchy", cell, [&] {
            for (size_t k = 0; k < n; ++k, ++i) {
                const MemRequest &req = chunk[k];
                auto c = static_cast<size_t>(req.core);
                core_time[c] += req.gap_instructions;
                if (i % kSampleStride == 0) {
                    const int64_t t0 = nowNs();
                    HierarchyAccess acc = hierarchy->access(
                        req.core, req.addr, req.is_write, core_time[c]);
                    const Level level = deepestLevel(acc);
                    out->level_ns[level] += nowNs() - t0;
                    ++out->level_samples[level];
                    core_time[c] += acc.latency;
                } else {
                    HierarchyAccess acc = hierarchy->access(
                        req.core, req.addr, req.is_write, core_time[c]);
                    core_time[c] += acc.latency;
                }
            }
        });
        if (i == warmup && warmup > 0)
            snapshot();
    }

    ReplayCounters rc;
    for (size_t c = 0; c < core_time.size(); ++c)
        rc.cycles = std::max(rc.cycles, core_time[c] - start_time[c]);
    rc.llc_accesses = hierarchy->l3().stats().accesses() - warm_l3_acc;
    rc.llc_misses = hierarchy->l3().stats().misses() - warm_l3_miss;
    rc.dram_accesses = hierarchy->dramAccesses() - warm_dram;

    for (int core = 0; core < cfg.hierarchy.cores; ++core) {
        const CacheStats &s = hierarchy->l1(core).stats();
        out->l1_accesses += s.accesses();
        out->l1_hits += s.accesses() - s.misses();
    }
    for (int cl = 0; cl < (cfg.hierarchy.cores + 1) / 2; ++cl) {
        const CacheStats &s = hierarchy->l2(cl).stats();
        out->l2_accesses += s.accesses();
        out->l2_hits += s.accesses() - s.misses();
    }
    const CacheStats &l3 = hierarchy->l3().stats();
    out->l3_accesses += l3.accesses();
    out->l3_hits += l3.accesses() - l3.misses();

    if (const RmBank *bank = hierarchy->rmBank()) {
        const RmBankStats &s = bank->stats();
        rc.shift_ops = s.shift_ops - warm_rm.shift_ops;
        rc.shift_steps = s.shift_steps - warm_rm.shift_steps;
        rc.migrations = s.migrations - warm_rm.migrations;
        rc.redundancy_accesses =
            s.redundancy_accesses - warm_rm.redundancy_accesses;
        out->rm_accesses += s.accesses;
        out->rm_shift_ops += s.shift_ops;
        out->rm_memo_hits += s.plan_memo_hits;
        out->rm_migrations += s.migrations;
        out->rm_redundancy += s.redundancy_accesses;
        const std::string violation = bank->ledgerViolation();
        if (!violation.empty())
            out->failures.push_back(profile.name + ": RmBank ledger: " +
                                    violation);
    }
    return rc;
}

} // anonymous namespace

void
ladderMatrix(Tracer &tracer, const LadderSection &section,
             LayerFigures *out)
{
    const ExperimentSpec &spec = *section.spec;
    if (!spec.matrix.enabled)
        return;
    const size_t no = spec.matrix.options.size();
    PaperCalibratedErrorModel model;
    for (size_t w = 0; w < spec.matrix.workloads.size(); ++w) {
        for (size_t o = 0; o < no; ++o) {
            // Sampled: one cell per workload, rotating through the
            // options so every option is replayed at least once when
            // there are as many workloads as options.
            if (section.sample_matrix && o != w % no)
                continue;
            const LlcOption &opt = spec.matrix.options[o];
            const int64_t cell =
                section.cell_base + static_cast<int64_t>(w * no + o);
            const std::string label =
                spec.matrix.workloads[w] + "/" + opt.label;
            const SimConfig cfg = matrixCellConfig(spec, opt);
            const WorkloadProfile profile = scaledProfile(
                parsecProfile(spec.matrix.workloads[w]),
                spec.matrix.divisor);

            const int root = tracer.open("bench.matrix_cell", cell);
            SimResult r;
            out->simulate_ns += tracer.time("sim.simulate", cell, [&] {
                r = simulate(profile, cfg, &model);
            });
            const ReplayCounters rc =
                replayMatrixCell(tracer, cell, profile, cfg, &model, out);
            tracer.close(root);
            ++out->matrix_cells;
            out->requests += cfg.warmup_requests + cfg.mem_requests;

            expectEqual("llc accesses", label, rc.llc_accesses,
                        r.llc_accesses, out);
            expectEqual("llc misses", label, rc.llc_misses, r.llc_misses,
                        out);
            expectEqual("dram accesses", label, rc.dram_accesses,
                        r.dram_accesses, out);
            expectEqual("shift ops", label, rc.shift_ops, r.shift_ops,
                        out);
            expectEqual("shift steps", label, rc.shift_steps,
                        r.shift_steps, out);
            expectEqual("migrations", label, rc.migrations, r.migrations,
                        out);
            expectEqual("redundancy accesses", label,
                        rc.redundancy_accesses, r.redundancy_accesses,
                        out);
            expectEqual("cycles", label, rc.cycles, r.cycles, out);
            if (section.engine &&
                simResultToJson(profile.name, opt, r) !=
                    simResultToJson(profile.name, opt,
                                    section.engine->matrix[w].results[o]))
                out->failures.push_back(
                    label + ": simulate() differs from the engine cell");
        }
    }
}

void
ladderCampaign(Tracer &tracer, const LadderSection &section,
               LayerFigures *out)
{
    const ExperimentSpec &spec = *section.spec;
    if (!spec.campaign.enabled)
        return;
    const CampaignConfig &config = spec.campaign.config;
    const size_t nw = spec.campaign.workloads.size();
    const int64_t matrix_cells =
        spec.matrix.enabled
            ? static_cast<int64_t>(spec.matrix.workloads.size() *
                                   spec.matrix.options.size())
            : 0;
    for (size_t i = 0; i < spec.campaign.scenarios.size() * nw; ++i) {
        const ScenarioSpec &scenario_spec =
            spec.campaign.scenarios[i / nw];
        const WorkloadProfile profile =
            parsecProfile(spec.campaign.workloads[i % nw]);
        const uint64_t cell_seed = mixSeed(config.seed, i);
        const int64_t cell =
            section.cell_base + matrix_cells + static_cast<int64_t>(i);
        const std::string label = scenario_spec.name + "/" + profile.name;

        const int root = tracer.open("bench.campaign_cell", cell);
        CampaignCellResult drill;
        out->drill_ns += tracer.time("sim.fault_drill", cell, [&] {
            drill = runFaultDrill(scenario_spec, profile, config,
                                  cell_seed);
        });
        ++out->drills;

        // Controller loop of the drill, with the requests generated
        // up front so the span covers controller work alone.
        auto base = std::make_shared<PaperCalibratedErrorModel>();
        auto scaled =
            std::make_shared<ScaledErrorModel>(base, config.scale);
        std::unique_ptr<FaultScenario> scenario;
        std::unique_ptr<ShiftController> ctl;
        tracer.time("control.setup", cell, [&] {
            scenario = makeScenario(scenario_spec, scaled);
            Rng cell_rng(cell_seed);
            ctl = std::make_unique<ShiftController>(
                config.pecc, scenario.get(), config.policy,
                config.peak_ops_per_second, cell_rng.fork(),
                kDefaultSafeMttfSeconds, config.recovery);
            ctl->initialize();
        });
        std::vector<MemRequest> reqs(config.accesses_per_cell);
        tracer.time("trace.gen", cell, [&] {
            WorkloadGenerator gen(profile, config.workload_cores,
                                  mixSeed(cell_seed, 1));
            for (MemRequest &r : reqs)
                r = gen.next();
        });
        const auto num_segments =
            static_cast<uint64_t>(config.pecc.num_segments);
        const auto seg_len = static_cast<uint64_t>(config.pecc.seg_len);
        out->control_ns += tracer.time("control.access", cell, [&] {
            Cycles now = 0;
            for (uint64_t a = 0; a < reqs.size(); ++a) {
                const MemRequest &req = reqs[a];
                const uint64_t line = req.addr / 64;
                const int seg = static_cast<int>(line % num_segments);
                const int idx = static_cast<int>(
                    (line / num_segments) % seg_len);
                AccessResult r =
                    req.is_write
                        ? ctl->write(seg, idx,
                                     (a & 1) ? Bit::One : Bit::Zero, now)
                        : ctl->read(seg, idx, now);
                now += r.latency + req.gap_instructions + 1;
                if (r.due || !r.position_ok)
                    ctl->initialize();
            }
        });
        const ControllerStats &cs = ctl->stats();
        out->controller.merge(cs);
        out->injected += scenario->ledger().injected;

        // Bank degradation drill on the live planner.
        RmBankConfig bank_config;
        bank_config.line_frames = config.bank_frames;
        bank_config.scheme = Scheme::PeccSAdaptive;
        bank_config.group_retry_budget = config.group_retry_budget;
        bank_config.use_plan_memo = false;
        std::unique_ptr<RmBank> bank;
        tracer.time("mem.rm_build", cell, [&] {
            bank = std::make_unique<RmBank>(bank_config, scaled.get(),
                                            l3For(MemTech::Racetrack));
        });
        out->rm_live_ns += tracer.time("mem.rm_live", cell, [&] {
            Rng bank_rng(mixSeed(cell_seed, 2));
            Cycles bank_now = 0;
            for (uint64_t a = 0; a < config.accesses_per_cell; ++a) {
                const uint64_t frame =
                    bank_rng.uniformInt(config.bank_frames);
                ShiftCost c = bank->accessFrame(frame, bank_now);
                bank_now += c.latency + 4;
                if (bank_rng.bernoulli(config.bank_due_prob))
                    bank->reportUnrecoverable(frame);
            }
        });
        out->rm_live_accesses += config.accesses_per_cell;
        tracer.close(root);

        expectEqual("controller accesses", label, cs.accesses,
                    drill.controller.accesses, out);
        expectEqual("controller shift steps", label, cs.shift_steps,
                    drill.controller.shift_steps, out);
        expectEqual("controller detections", label, cs.detected_errors,
                    drill.controller.detected_errors, out);
        expectEqual("controller DUEs", label, cs.unrecoverable,
                    drill.controller.unrecoverable, out);
        expectEqual("controller SDCs", label, cs.silent_errors,
                    drill.controller.silent_errors, out);
        expectEqual("controller scrubs", label, cs.scrubs,
                    drill.controller.scrubs, out);
        expectEqual("injected faults", label, scenario->ledger().injected,
                    drill.ledger.injected_faults, out);
        expectEqual("bank DUE reports", label, bank->stats().due_reports,
                    drill.bank_due_reports, out);
        expectEqual("bank degraded groups", label,
                    bank->stats().degraded_groups,
                    drill.bank_degraded_groups, out);
        const std::string violation = controllerLedgerViolation(cs);
        if (!violation.empty())
            out->failures.push_back(label + ": controller ledger: " +
                                    violation);
        if (!bank->ledgerViolation().empty())
            out->failures.push_back(label + ": RmBank ledger: " +
                                    bank->ledgerViolation());
        if (!drill.contained)
            out->failures.push_back(label + ": not contained: " +
                                    drill.violation);
        if (section.engine &&
            campaignCellToJson(drill) !=
                campaignCellToJson(section.engine->campaign.cells[i]))
            out->failures.push_back(
                label + ": runFaultDrill() differs from the engine cell");
    }
}

void
ladderStress(Tracer &tracer, const LadderSection &section,
             LayerFigures *out)
{
    const ExperimentSpec &spec = *section.spec;
    if (!spec.stress.enabled)
        return;
    const StressSpec &s = spec.stress;
    const int64_t cell = section.cell_base + 1000000;
    const int root = tracer.open("bench.stress_cell", cell);
    const int64_t t0 = nowNs();

    // A replay of runStressDrill's loop with the analytic model and
    // the stripe timed call by call.
    PeccConfig cfg;
    cfg.seg_len = s.lseg;
    Scheme scheme = Scheme::SecdedPecc;
    stressSchemeConfig(s.scheme, &scheme, &cfg);
    auto base = std::make_shared<PaperCalibratedErrorModel>();
    ScaledErrorModel model(base, s.scale);
    ReliabilityModel analytic(&model, scheme);
    ProtectedStripe stripe(cfg, &model, Rng(s.seed));
    stripe.initializeIdeal();
    std::vector<Bit> reference;
    if (cfg.variant == PeccVariant::DelIns) {
        const int bits = stripe.delInsCode()->payloadBits();
        for (int b = 0; b < bits; ++b)
            reference.push_back((b * 5 + 2) % 3 == 0 ? Bit::One
                                                     : Bit::Zero);
        stripe.loadPayload(reference);
    }
    Rng dice(s.seed ^ 0xfeedbeef);
    uint64_t corrected = 0, due = 0, silent = 0, clean = 0;
    const int lseg = s.lseg;
    for (uint64_t i = 0; i < s.ops; ++i) {
        const int target = static_cast<int>(
            dice.uniformInt(static_cast<uint64_t>(lseg)));
        const int cur_idx = lseg - 1 - stripe.believedOffset();
        const int distance = std::abs(target - cur_idx);
        if (distance == 0)
            continue;
        const std::vector<int> parts =
            cfg.variant == PeccVariant::OverheadRegion
                ? std::vector<int>(static_cast<size_t>(distance), 1)
                : std::vector<int>{distance};
        int64_t t = nowNs();
        [[maybe_unused]] const ShiftReliability r =
            analytic.sequence(parts);
        const int64_t seq_ns = nowNs() - t;
        tracer.addInline("model", seq_ns);
        out->sequence_ns += seq_ns;
        ++out->sequences;

        std::vector<Bit> got;
        t = nowNs();
        const ProtectedShiftResult res =
            cfg.variant == PeccVariant::DelIns
                ? stripe.readoutNow(&got)
                : stripe.seekIndex(target);
        const int64_t codec_ns = nowNs() - t;
        tracer.addInline("codec", codec_ns);
        if (cfg.variant == PeccVariant::DelIns) {
            out->readout_ns += codec_ns;
            ++out->readouts;
        }
        if (res.unrecoverable) {
            ++due;
            stripe.initializeIdeal();
            if (!reference.empty())
                stripe.loadPayload(reference);
            continue;
        }
        if (cfg.variant == PeccVariant::DelIns) {
            if (got != reference) {
                ++silent;
                stripe.initializeIdeal();
                stripe.loadPayload(reference);
            } else if (res.corrected) {
                ++corrected;
            } else {
                ++clean;
            }
            continue;
        }
        if (res.corrected) {
            ++corrected;
        } else if (stripe.positionError() != 0) {
            ++silent;
            stripe.initializeIdeal();
        } else {
            ++clean;
        }
    }
    out->stress_ns += nowNs() - t0;
    tracer.close(root);

    const StressResult want =
        section.engine ? section.engine->stress : runStressDrill(s);
    expectEqual("stress corrected", "stress", corrected, want.corrected,
                out);
    expectEqual("stress DUEs", "stress", due, want.due, out);
    expectEqual("stress silent", "stress", silent, want.silent, out);
    expectEqual("stress clean", "stress", clean, want.clean, out);
}

void
ladderMonteCarlo(Tracer &tracer, const LadderSection &section,
                 LayerFigures *out)
{
    const ExperimentSpec &spec = *section.spec;
    if (!spec.montecarlo.enabled)
        return;
    const McSpec &s = spec.montecarlo;
    const int64_t cell = section.cell_base + 2000000;
    McTier tier = McTier::Exact;
    mcTierFromToken(s.tier, &tier);

    const int root = tracer.open("bench.mc_cell", cell);
    PositionErrorMonteCarlo mc(DeviceParams{}, s.seed, tier);
    ErrorPdf pdf;
    out->mc_run_ns += tracer.time("device.mc_run", cell, [&] {
        pdf = mc.run(s.distance, s.trials);
    });
    out->mc_trials += pdf.tallyTrials();
    FittedModelParams fit;
    if (s.fit_trials > 0)
        out->mc_fit_ns += tracer.time("device.mc_fit", cell, [&] {
            fit = mc.fitModel(s.fit_trials).params();
        });
    tracer.close(root);

    if (pdf.tallyTrials() != s.trials)
        out->failures.push_back("montecarlo: trial count mismatch");
    if (!section.engine)
        return;
    const McRunResult &want = section.engine->mc;
    if (pdf.deviation.mean() != want.deviation_mean ||
        pdf.deviation.stddev() != want.deviation_stddev ||
        pdf.stepProbability(1) != want.step_prob_plus1 ||
        (want.has_fit && (fit.sigma_step != want.fit.sigma_step ||
                          fit.resync_rho != want.fit.resync_rho ||
                          fit.drift != want.fit.drift)))
        out->failures.push_back(
            "montecarlo: replay differs from the engine cell");
}

void
ladderErrorModel(Tracer &tracer, LayerFigures *out)
{
    // One build takes well under a microsecond; time a batch.
    constexpr int kBuilds = 32;
    out->error_model_ns += tracer.time("device.error_model_build", -1,
                                       [] {
        for (int i = 0; i < kBuilds; ++i)
            PaperCalibratedErrorModel model;
    });
    out->error_models += kBuilds;
}

void
ladderJournal(Tracer &tracer, const ExperimentResult &result,
              const std::string &path, LayerFigures *out)
{
    JournalWriter journal;
    std::string error;
    if (!journal.open(path, false, &error)) {
        out->failures.push_back("journal: " + error);
        return;
    }
    journal.appendHeader(makeJournalHeader(result.spec, result.cells));
    const ExperimentSpec &spec = result.spec;
    uint64_t index = 0;
    auto append = [&](const std::string &label, auto &&serialise) {
        out->journal_ns += tracer.time("util.journal", -1, [&] {
            JournalRecord rec;
            rec.index = index;
            rec.label = label;
            rec.result = serialise();
            journal.appendRecord(rec);
        });
        ++index;
        ++out->journal_cells;
    };
    if (result.has_matrix)
        for (const WorkloadMatrixRow &row : result.matrix)
            for (size_t o = 0; o < row.results.size(); ++o)
                append(row.profile.name, [&] {
                    return simResultToJson(row.profile.name,
                                           spec.matrix.options[o],
                                           row.results[o]);
                });
    if (result.has_campaign)
        for (const CampaignCellResult &c : result.campaign.cells)
            append(c.scenario + "/" + c.workload,
                   [&] { return campaignCellToJson(c); });
    if (!journal.close())
        out->failures.push_back("journal: write failed");
}

} // namespace perfbench
