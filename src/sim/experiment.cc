#include "experiment.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>

#include "codec/protected_stripe.hh"
#include "model/reliability.hh"
#include "model/tech.hh"
#include "util/hash.hh"
#include "util/logging.hh"
#include "util/parallel.hh"

namespace rtm
{

namespace
{

void
checkWorkloadNames(const SpecReader &r,
                   const std::vector<std::string> &names)
{
    for (const std::string &name : names) {
        const std::vector<WorkloadProfile> &known = parsecProfiles();
        if (std::none_of(known.begin(), known.end(),
                         [&](const auto &p) { return p.name == name; }))
            r.fail("workloads", "unknown workload '" + name + "'");
    }
}

/** The campaign section's default workload trio. */
std::vector<std::string>
defaultCampaignWorkloads()
{
    return {"swaptions", "canneal", "ferret"};
}

/** Whether an option carries a non-default placement/head setting. */
bool
nonDefaultPlacement(const LlcOption &o)
{
    return o.placement != PlacementKind::Static ||
           o.head_policy != HeadPolicy::Stay;
}

/** Range checks of the `placement` object under reader `r`. */
void
checkPlacement(const SpecReader &r, const LlcOption &o)
{
    if (o.placement_epoch == 0)
        r.fail("placement.epoch", "must be >= 1 access");
    if (o.placement_swap_budget < 0)
        r.fail("placement.swap_budget", "must be >= 0");
}

/** `o` with the placement axes of `defaults`. */
LlcOption
inheritPlacement(LlcOption o, const LlcOption &defaults)
{
    placementFields([](const char *, auto &to,
                       const auto &from) { to = from; },
                    o, defaults);
    return o;
}

void
parseOptionList(SpecReader &r, std::vector<LlcOption> *out,
                const LlcOption &defaults)
{
    const JsonValue *arr = r.child("options", JsonType::Array);
    if (!arr)
        return;
    out->clear();
    for (size_t i = 0; i < arr->size(); ++i) {
        const JsonValue &item = arr->at(i);
        if (item.isString()) {
            // Catalogue shortcuts, resolved at parse time so the
            // emitted spec is always an explicit list. They inherit
            // the matrix-level placement defaults.
            std::vector<LlcOption> catalogue;
            if (item.asString() == "standard")
                catalogue = standardLlcOptions();
            else if (item.asString() == "racetrack")
                catalogue = racetrackSchemeOptions();
            else if (item.asString() == "shift-codes")
                catalogue = shiftCodeLlcOptions();
            else
                r.fail("options",
                       "unknown option shortcut '" +
                           item.asString() +
                           "' (want \"standard\", \"racetrack\" or "
                           "\"shift-codes\")");
            for (const LlcOption &o : catalogue)
                out->push_back(inheritPlacement(o, defaults));
            continue;
        }
        SpecReader o = r.sub("options[" + std::to_string(i) + "]", item);
        LlcOption opt = inheritPlacement(LlcOption{}, defaults);
        opt.tech = MemTech::Racetrack;
        opt.scheme = Scheme::PeccSAdaptive;
        readFields(o, opt);
        if (o.has("placement"))
            checkPlacement(o, opt);
        // Default labels must stay distinct across a placement
        // sweep, so non-default axes are spelled out unless the
        // spec names the option itself.
        if (!o.has("label")) {
            opt.label = std::string(memTechName(opt.tech)) + " " +
                        schemeName(opt.scheme);
            if (nonDefaultPlacement(opt))
                opt.label += std::string(" [") +
                             placementKindName(opt.placement) + "/" +
                             headPolicyName(opt.head_policy) + "]";
        }
        out->push_back(opt);
    }
}

void
checkProtectionDomain(const SpecReader &r, const std::string &at,
                      const ProtectionDomain &d)
{
    // The fixed hierarchy defaults (Lseg, frames per group); the
    // bank re-validates at construction against its actual scheme,
    // this front-loads the typed diagnostic.
    const HierarchyConfig geometry;
    const std::string err = protectionDomainError(
        d, Scheme::PeccSAdaptive, geometry.seg_len,
        geometry.frames_per_group);
    if (!err.empty())
        r.fail(at + "codeword_frames", err);
}

/**
 * The capacity divisor must leave every option's hierarchy buildable
 * (hierarchyGeometryError, the rule the Hierarchy constructor
 * enforces), so a bad divisor fails here instead of in every engine
 * worker.
 */
void
checkDivisorGeometry(SpecReader &r, const MatrixSpec &m)
{
    const std::vector<LlcOption> options =
        m.options.empty() ? standardLlcOptions() : m.options;
    for (const LlcOption &o : options) {
        HierarchyConfig h;
        h.llc_tech = o.tech;
        h.capacity_divisor = m.divisor;
        const std::string err = hierarchyGeometryError(h);
        if (!err.empty()) {
            r.fail("divisor", err);
            return;
        }
    }
}

} // anonymous namespace

// --- spec sections (hand-written parse steps, see fields.hh) ----------

void
finishRead(SpecReader &r, MatrixSpec &m)
{
    // The rtmsim convention: an unstated warmup tracks the request
    // count (one tenth), so shrinking a spec's requests on the command
    // line keeps the run proportioned.
    if (!r.has("warmup"))
        m.warmup = m.requests / 10;
    checkWorkloadNames(r, m.workloads);
    // A matrix-level `placement` object is parse-time sugar: it seeds
    // the defaults every option (and shortcut expansion) inherits
    // unless the option carries its own `placement`. The emitted spec
    // is always explicit per-option, so parse -> emit -> parse is the
    // identity.
    LlcOption defaults;
    FieldReader reader(r);
    reader("placement",
           SubObject{[&](auto &p) { placementFields(p, defaults); }});
    checkPlacement(r, defaults);
    parseOptionList(r, &m.options, defaults);
    // Without an explicit option list the normalizer fills the
    // standard catalogue; expand it here instead when a matrix-level
    // placement was given so the section is honoured in that case
    // too.
    if (!r.has("options") && nonDefaultPlacement(defaults)) {
        m.options.clear();
        for (const LlcOption &o : standardLlcOptions())
            m.options.push_back(inheritPlacement(o, defaults));
    }
    if (m.requests == 0)
        r.fail("requests", "must be >= 1");
    if (m.divisor == 0)
        r.fail("divisor", "must be >= 1");
    else
        checkDivisorGeometry(r, m);
}

void
finishRead(SpecReader &r, CampaignSpec &c)
{
    const CampaignConfig &cfg = c.config;
    if (const JsonValue *arr = r.child("scenarios", JsonType::Array)) {
        c.scenarios.clear();
        for (size_t i = 0; i < arr->size(); ++i) {
            const JsonValue &item = arr->at(i);
            if (item.isString() && item.asString() == "standard") {
                for (const ScenarioSpec &s : standardScenarios())
                    c.scenarios.push_back(s);
            } else if (item.isString()) {
                r.fail("scenarios", "unknown scenario shortcut '" +
                                        item.asString() +
                                        "' (want \"standard\")");
            } else {
                SpecReader sr = r.sub(
                    "scenarios[" + std::to_string(i) + "]", item);
                ScenarioSpec s;
                readFields(sr, s);
                if (!sr.has("name"))
                    s.name = enumToken(s.kind);
                c.scenarios.push_back(s);
            }
        }
    }
    checkWorkloadNames(r, c.workloads);
    if (cfg.accesses_per_cell == 0)
        r.fail("accesses", "must be >= 1");
    if (cfg.scale <= 0.0)
        r.fail("scale", "must be > 0");
    if (cfg.workload_cores < 1)
        r.fail("workload_cores", "must be >= 1");
    // The stripe every drill cell builds (computeLayout's checks).
    const std::string geometry = protectionGeometryError(cfg.pecc, 0);
    if (!geometry.empty())
        r.fail("pecc", geometry);
    if (cfg.bank_frames == 0)
        r.fail("bank.frames", "must be >= 1");
    if (!(cfg.bank_due_prob >= 0.0 && cfg.bank_due_prob <= 1.0))
        r.fail("bank.due_prob", "must be in [0, 1]");
}

void
finishRead(SpecReader &r, ExperimentSpec &spec)
{
    const StressSpec &s = spec.stress;
    Scheme scheme;
    const bool known = schemeFromToken(s.scheme, &scheme);
    if (!known || !schemeRow(scheme).stripe_drill) {
        std::string drills;
        for (const SchemeRow &row : kSchemeRows)
            if (row.stripe_drill)
                drills += (drills.empty() ? "" : " | ") +
                          std::string(row.token);
        r.fail("stress.scheme",
               (known ? "scheme '" + s.scheme + "' has no stripe drill"
                      : "unknown scheme '" + s.scheme + "'") +
                   " (" + drills + ")");
    }
    if (s.scale <= 0.0)
        r.fail("stress.scale", "must be > 0");
    if (known && schemeRow(scheme).stripe_drill) {
        // The drill's stripe: two segments of lseg domains.
        const std::string err =
            protectionGeometryError(peccConfigFor(scheme, 2, s.lseg), 0);
        if (!err.empty())
            r.fail("stress.lseg",
                   "too short for scheme '" + s.scheme + "': " + err);
    }
    const McSpec &mc = spec.montecarlo;
    McTier tier;
    if (!mcTierFromToken(mc.tier, &tier))
        r.fail("montecarlo.tier",
               "unknown tier '" + mc.tier + "' (exact | fast)");
    if (mc.distance < 1)
        r.fail("montecarlo.distance", "must be >= 1");
    if (mc.trials < 1)
        r.fail("montecarlo.trials", "must be >= 1");
    // The fit reads a standard deviation, which one trial lacks.
    if (mc.fit_trials == 1)
        r.fail("montecarlo.fit_trials", "must be 0 (no fit) or >= 2");

    if (!r.has("protection"))
        return;
    const ProtectionPolicy &p = spec.protection;
    checkProtectionDomain(r, "protection.uniform.", p.uniform);
    for (size_t i = 0; i < p.levels.size(); ++i) {
        const std::string at =
            "protection.levels[" + std::to_string(i) + "].";
        const std::string &level = p.levels[i].level;
        if (level != "l1" && level != "l2" && level != "llc")
            r.fail(at + "level", "unknown cache level '" + level +
                                     "' (l1 | l2 | llc)");
        checkProtectionDomain(r, at, p.levels[i].domain);
    }
    for (size_t i = 0; i < p.regions.size(); ++i) {
        const std::string at =
            "protection.regions[" + std::to_string(i) + "].";
        const ProtectionRegion &g = p.regions[i];
        if (g.begin < 0.0 || g.begin >= 1.0)
            r.fail(at + "begin", "must be in [0, 1)");
        if (g.end <= g.begin || g.end > 1.0)
            r.fail(at + "end", "must be in (begin, 1]");
        checkProtectionDomain(r, at, g.domain);
    }
}

// --- engine ----------------------------------------------------------

const char *
cellStatusToken(CellStatus status)
{
    switch (status) {
      case CellStatus::Ok: return "ok";
      case CellStatus::Failed: return "failed";
      case CellStatus::TimedOut: return "timed_out";
      case CellStatus::Cancelled: return "cancelled";
      case CellStatus::Skipped: return "skipped";
    }
    return "?";
}

bool
ExperimentEngine::replayCell(size_t index, const JsonValue &result)
{
    if (index >= cells_.size())
        return false;
    Cell &cell = cells_[index];
    if (cell.replayed || !cell.load || !cell.load(result))
        return false;
    cell.replayed = true;
    return true;
}

void
ExperimentEngine::runCell(Cell &cell, size_t index,
                          TelemetryScope shard, double run_deadline)
{
    CellOutcome &out = outcomes_[index];
    const double t0 = monotonicSeconds();
    out.start_s = t0;
    // Effective deadline: the earlier of the per-cell watchdog and
    // the whole-run deadline (0 = none).
    double deadline = 0.0;
    if (resilience_.cell_deadline_ms > 0)
        deadline = t0 + static_cast<double>(
                            resilience_.cell_deadline_ms) / 1e3;
    if (run_deadline > 0.0 &&
        (deadline == 0.0 || run_deadline < deadline))
        deadline = run_deadline;

    int attempt = 0;
    for (;;) {
        ++attempt;
        StopFlag stop(cancel_, deadline);
        if (stop.poll()) {
            out.status = stop.reason() == StopReason::Deadline
                             ? CellStatus::TimedOut
                             : CellStatus::Cancelled;
            break;
        }
        try {
            if (fault_hook_)
                fault_hook_(index, attempt);
            cell.body(shard, &stop);
            // The latch is the validity contract: the result slot is
            // good iff the body never observed a stop. A cancel that
            // fires after the last poll leaves a completed cell.
            if (stop.stopped())
                out.status =
                    stop.reason() == StopReason::Deadline
                        ? CellStatus::TimedOut
                        : CellStatus::Cancelled;
            else
                out.status = CellStatus::Ok;
            break;
        } catch (const std::exception &e) {
            out.error = e.what();
        } catch (...) {
            out.error = "unknown exception";
        }
        out.status = CellStatus::Failed;
        if (static_cast<uint64_t>(attempt) >
            resilience_.retry_budget)
            break;
        if (cancel_ && cancel_->cancelled())
            break;
        // Exponential backoff, sliced so a cancel cuts it short.
        const int shift = std::min(attempt - 1, 20);
        uint64_t delay_ms = std::min<uint64_t>(
            resilience_.backoff_ms << shift, 10000);
        while (delay_ms > 0 &&
               !(cancel_ && cancel_->cancelled())) {
            const uint64_t slice = std::min<uint64_t>(delay_ms, 10);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(slice));
            delay_ms -= slice;
        }
    }
    out.attempts = attempt;
    out.wall_ms = (monotonicSeconds() - t0) * 1e3;
    if (out.status == CellStatus::Ok && journal_ && cell.save) {
        JournalRecord rec;
        rec.index = index;
        rec.label = cell.label;
        rec.result = cell.save();
        journal_->appendRecord(rec);
    }
    if (on_outcome_)
        on_outcome_(index, out);
}

void
ExperimentEngine::run(TelemetryScope root)
{
    std::vector<Cell> cells = std::move(cells_);
    cells_.clear();
    // Pre-fill every outcome as Cancelled: a cell the cancel-aware
    // parallelFor never claims keeps exactly that status. Replayed
    // cells are Skipped up front (their slots are already loaded).
    outcomes_.assign(cells.size(), CellOutcome{});
    for (size_t i = 0; i < cells.size(); ++i) {
        outcomes_[i].label = cells[i].label;
        if (cells[i].replayed) {
            outcomes_[i].status = CellStatus::Skipped;
            if (on_outcome_)
                on_outcome_(i, outcomes_[i]);
        }
    }
    const double run_deadline =
        resilience_.run_deadline_ms > 0
            ? monotonicSeconds() +
                  static_cast<double>(resilience_.run_deadline_ms) /
                      1e3
            : 0.0;
    // One shard per job: shards merge into the root in job order, so
    // the exported telemetry is bit-identical at any RTM_THREADS.
    TelemetryShards shards(root, cells.size(), ring_capacity_);
    ThreadPool::global().parallelFor(
        cells.size(),
        [&](size_t i) {
            if (cells[i].replayed)
                return;
            runCell(cells[i], i, shards.shard(i), run_deadline);
        },
        cancel_);
    shards.mergeIntoRoot();
    if (root) {
        // Each executed cell's one wall-clock measurement, pushed in
        // cell order after the shard events so a wrapped event ring
        // drops simulator events before any cell span.
        Telemetry &t = *root.get();
        LatencyHistogram &wall = t.histogram(
            "experiment.cell_wall_ms", powerOfTwoEdges(65536.0));
        for (size_t i = 0; i < outcomes_.size(); ++i) {
            const CellOutcome &o = outcomes_[i];
            if (o.attempts == 0)
                continue; // replayed, or never claimed
            wall.record(o.wall_ms);
            t.span("experiment.cell", static_cast<uint32_t>(i),
                   o.start_s, o.wall_ms * 1e-3, static_cast<double>(i));
        }
    }
}

// --- spec ------------------------------------------------------------

void
normalizeExperimentSpec(ExperimentSpec *spec)
{
    if (spec->matrix.workloads.empty())
        for (const WorkloadProfile &p : parsecProfiles())
            spec->matrix.workloads.push_back(p.name);
    if (spec->matrix.options.empty())
        spec->matrix.options = standardLlcOptions();
    if (spec->campaign.scenarios.empty())
        spec->campaign.scenarios = standardScenarios();
    if (spec->campaign.workloads.empty())
        spec->campaign.workloads = defaultCampaignWorkloads();
}

JsonValue
experimentSpecToJson(const ExperimentSpec &spec_in)
{
    ExperimentSpec spec = spec_in;
    normalizeExperimentSpec(&spec);
    return toJson(spec);
}

bool
experimentSpecFromJson(const JsonValue &doc, ExperimentSpec *spec,
                       std::string *diag)
{
    std::string local;
    std::string *d = diag ? diag : &local;
    d->clear();

    ExperimentSpec out;
    SpecReader top(doc, "", d);
    readFields(top, out);
    if (!d->empty())
        return false;
    normalizeExperimentSpec(&out);
    *spec = std::move(out);
    return true;
}

bool
loadExperimentSpec(const std::string &path, ExperimentSpec *spec,
                   std::string *diag)
{
    JsonValue doc;
    if (!loadJsonFile(path, &doc, diag))
        return false;
    std::string parse_diag;
    if (!experimentSpecFromJson(doc, spec, &parse_diag)) {
        if (diag) {
            *diag = path + ": " + parse_diag;
            size_t pos = 0;
            // Prefix every diagnostic line with the file path.
            while ((pos = diag->find('\n', pos)) !=
                   std::string::npos) {
                diag->replace(pos, 1, "\n" + path + ": ");
                pos += path.size() + 3;
            }
        }
        return false;
    }
    return true;
}

std::string
experimentSpecHash(const ExperimentSpec &spec_in)
{
    // Output sinks and the resilience policy do not affect a single
    // result bit, so they are excluded from the resume identity.
    ExperimentSpec spec = spec_in;
    spec.metrics_path.clear();
    spec.trace_path.clear();
    spec.output_path.clear();
    spec.resilience = ResilienceSpec{};
    const std::string text = experimentSpecToJson(spec).dump(0);
    return sha256Hex(text.data(), text.size());
}

// --- expansion -------------------------------------------------------

std::string
ExperimentCell::label() const
{
    switch (kind) {
      case Kind::Matrix:
        return workload + "/" + option.label;
      case Kind::Campaign:
        return scenario.name + "/" + workload;
      case Kind::Stress:
        return "stress";
      case Kind::MonteCarlo:
        return "montecarlo";
    }
    return "?";
}

std::vector<ExperimentCell>
expandCells(const ExperimentSpec &spec_in)
{
    ExperimentSpec spec = spec_in;
    normalizeExperimentSpec(&spec);
    std::vector<ExperimentCell> cells;
    if (spec.matrix.enabled) {
        const size_t no = spec.matrix.options.size();
        for (size_t w = 0; w < spec.matrix.workloads.size(); ++w) {
            for (size_t o = 0; o < no; ++o) {
                ExperimentCell cell;
                cell.kind = ExperimentCell::Kind::Matrix;
                cell.local_index = w * no + o;
                cell.workload = spec.matrix.workloads[w];
                cell.option = spec.matrix.options[o];
                cells.push_back(std::move(cell));
            }
        }
    }
    if (spec.campaign.enabled) {
        const size_t nw = spec.campaign.workloads.size();
        for (size_t s = 0; s < spec.campaign.scenarios.size(); ++s) {
            for (size_t w = 0; w < nw; ++w) {
                ExperimentCell cell;
                cell.kind = ExperimentCell::Kind::Campaign;
                cell.local_index = s * nw + w;
                cell.workload = spec.campaign.workloads[w];
                cell.scenario = spec.campaign.scenarios[s];
                cells.push_back(std::move(cell));
            }
        }
    }
    if (spec.stress.enabled) {
        ExperimentCell cell;
        cell.kind = ExperimentCell::Kind::Stress;
        cell.local_index = 0;
        cells.push_back(std::move(cell));
    }
    if (spec.montecarlo.enabled) {
        ExperimentCell cell;
        cell.kind = ExperimentCell::Kind::MonteCarlo;
        cell.local_index = 0;
        cells.push_back(std::move(cell));
    }
    return cells;
}

// --- stress drill ----------------------------------------------------

bool
stressSchemeConfig(const std::string &token, Scheme *scheme,
                   PeccConfig *config)
{
    // The stripe drill shares one stripe between two ports; seg_len
    // is the caller's (the --lseg flag / stress.lseg field).
    Scheme s;
    if (!schemeFromToken(token, &s) || !schemeRow(s).stripe_drill)
        return false;
    *scheme = s;
    *config = peccConfigFor(s, 2, config->seg_len);
    return true;
}

StressResult
runStressDrill(const StressSpec &spec, TelemetryScope telemetry,
               StopFlag *stop)
{
    StressResult out;
    PeccConfig cfg;
    cfg.seg_len = spec.lseg;
    if (!stressSchemeConfig(spec.scheme, &out.scheme, &cfg))
        rtm_fatal("unknown stress scheme '%s'",
                  spec.scheme.c_str());
    out.pecc = cfg;

    auto base = std::make_shared<PaperCalibratedErrorModel>();
    ScaledErrorModel model(base, spec.scale);
    ReliabilityModel analytic(&model, out.scheme);

    ProtectedStripe stripe(cfg, &model, Rng(spec.seed));
    stripe.initializeIdeal();

    // The del/ins drill judges silence against ground truth: a fixed
    // payload is loaded up front and every decoded readout compared
    // against it. (The positional drill below has no data path, so
    // it judges silence by residual offset instead.)
    std::vector<Bit> reference;
    if (cfg.variant == PeccVariant::DelIns) {
        const int bits = stripe.delInsCode()->payloadBits();
        for (int b = 0; b < bits; ++b)
            reference.push_back((b * 5 + 2) % 3 == 0 ? Bit::One
                                                     : Bit::Zero);
        stripe.loadPayload(reference);
    }

    Rng dice(spec.seed ^ 0xfeedbeef);
    LatencyHistogram *t_dist =
        telemetry ? &telemetry->histogram("stress.shift_distance",
                                          powerOfTwoEdges(64.0))
                  : nullptr;

    // The analytic expectation of an op depends on its seek distance
    // alone, so exponentiate each distance's fold once; an op adds
    // its table entry. Both the target and the believed index lie in
    // [0, lseg), so every distance is in [1, lseg - 1]. The
    // OverheadRegion variant decomposes into 1-step shifts.
    const int lseg = spec.lseg;
    struct Expectation
    {
        double corrected = 0.0;
        double due = 0.0;
        double sdc = 0.0;
    };
    std::vector<Expectation> expectation(static_cast<size_t>(lseg));
    for (int d = 1; d < lseg; ++d) {
        std::vector<int> parts =
            cfg.variant == PeccVariant::OverheadRegion
                ? std::vector<int>(static_cast<size_t>(d), 1)
                : std::vector<int>{d};
        ShiftReliability r = analytic.sequence(parts);
        Expectation &e = expectation[static_cast<size_t>(d)];
        e.corrected = std::exp(r.log_corrected);
        e.due = std::exp(r.log_due);
        e.sdc = std::exp(r.log_sdc);
    }

    std::vector<Bit> got; // del/ins readout payload, reused per op
    for (uint64_t i = 0; i < spec.ops; ++i) {
        if (stop && (i & 255) == 0 && stop->poll())
            return out;
        int target = static_cast<int>(
            dice.uniformInt(static_cast<uint64_t>(lseg)));
        int cur_idx = lseg - 1 - stripe.believedOffset();
        int distance = std::abs(target - cur_idx);
        if (distance == 0)
            continue;
        out.distances.add(distance);

        const Expectation &e =
            expectation[static_cast<size_t>(distance)];
        out.exp_corrected += e.corrected;
        out.exp_due += e.due;
        out.exp_sdc += e.sdc;

        // The del/ins scheme is exercised by what it actually
        // protects: a whole-stripe streaming readout (which also
        // realigns), not a positioned seek. The analytic expectation
        // above still uses the op's seek distance as its intensity,
        // matching how the LLC model charges the scheme.
        ProtectedShiftResult res =
            cfg.variant == PeccVariant::DelIns
                ? stripe.readoutNow(&got)
                : stripe.seekIndex(target);
        if (telemetry) {
            t_dist->record(static_cast<double>(distance));
            if (res.detected)
                telemetry->event(EventKind::ErrorDetected, "stripe",
                                 i, static_cast<double>(distance));
        }
        if (res.unrecoverable) {
            ++out.due;
            if (telemetry)
                telemetry->event(EventKind::RecoveryRung, "due", i);
            stripe.initializeIdeal(); // rebuild and continue
            if (!reference.empty())
                stripe.loadPayload(reference);
            continue;
        }
        if (cfg.variant == PeccVariant::DelIns) {
            if (got != reference) {
                ++out.silent;
                stripe.initializeIdeal();
                stripe.loadPayload(reference);
            } else if (res.corrected) {
                ++out.corrected;
            } else {
                // A residual positionError() here is a latent offset
                // from the fallible return shift; the next readout
                // absorbs it as a burst at read index 0. The data
                // this op returned was exact, so the op is clean.
                ++out.clean;
            }
            continue;
        }
        if (res.corrected) {
            ++out.corrected;
        } else if (stripe.positionError() != 0) {
            ++out.silent;
            stripe.initializeIdeal(); // reset the silent drift
        } else {
            ++out.clean;
        }
    }

    if (telemetry) {
        Telemetry &t = *telemetry.get();
        t.counter("stress.ops").add(spec.ops);
        t.counter("stress.corrected").add(out.corrected);
        t.counter("stress.due").add(out.due);
        t.counter("stress.silent").add(out.silent);
        t.counter("stress.clean").add(out.clean);
        t.gauge("stress.scale").set(spec.scale);
        t.gauge("stress.expected_corrected").set(out.exp_corrected);
        t.gauge("stress.expected_due").set(out.exp_due);
        t.gauge("stress.expected_sdc").set(out.exp_sdc);
    }
    return out;
}

// --- montecarlo cell -------------------------------------------------

McRunResult
runMcCell(const McSpec &spec, TelemetryScope telemetry,
          StopFlag *stop)
{
    McTier tier = McTier::Exact;
    if (!mcTierFromToken(spec.tier, &tier))
        rtm_fatal("unknown montecarlo tier '%s'", spec.tier.c_str());
    McRunResult out;
    out.distance = spec.distance;
    out.tier = mcTierToken(tier);
    // Nominal device, seed and tier from the spec: the cell result
    // is a pure function of the section. Inside an engine job the
    // nested shard fan-out runs inline, so the determinism guarantee
    // of run()/fitModel() carries through the scheduler.
    PositionErrorMonteCarlo mc(DeviceParams{}, spec.seed, tier);
    mc.setTelemetry(telemetry);
    mc.setStopFlag(stop);
    ErrorPdf pdf = mc.run(spec.distance, spec.trials);
    out.trials = pdf.tallyTrials();
    out.deviation_mean = pdf.deviation.mean();
    out.deviation_stddev = pdf.deviation.stddev();
    out.step_prob_ok = pdf.stepProbability(0);
    out.step_prob_plus1 = pdf.stepProbability(1);
    out.step_prob_minus1 = pdf.stepProbability(-1);
    if (spec.fit_trials > 0) {
        out.has_fit = true;
        out.fit = mc.fitModel(spec.fit_trials).params();
    }
    return out;
}

// --- result serde ----------------------------------------------------

JsonValue
simResultToJson(const std::string &workload, const LlcOption &opt,
                const SimResult &r)
{
    // The cell's identity comes from the spec; "option" sits right
    // after "workload" and is not a SimResult field.
    SimResult row = r;
    row.workload = workload;
    row.llc_tech = opt.tech;
    row.scheme = opt.scheme;
    JsonValue v = JsonValue::object();
    v.set("workload", workload);
    v.set("option", opt.label);
    writeFields(v, row);
    return v;
}

bool
simResultFromJson(const JsonValue &doc, SimResult *out)
{
    std::string diag;
    SpecReader r(doc, "", &diag);
    std::string label;
    r.readString("option", &label);
    SimResult res;
    readFields(r, res);
    if (!diag.empty())
        return false;
    *out = std::move(res);
    return true;
}

namespace
{

/** The SimConfig of a matrix cell running `opt` under `spec`. */
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

/** The stress reporting view (the checkpoint is its field list). */
JsonValue
stressResultToJson(const StressResult &r)
{
    JsonValue v = JsonValue::object();
    v.set("scheme", schemeToken(r.scheme));
    v.set("corrected", r.corrected);
    v.set("due", r.due);
    v.set("silent", r.silent);
    v.set("clean", r.clean);
    v.set("expected_corrected", r.exp_corrected);
    v.set("expected_due", r.exp_due);
    v.set("expected_sdc", r.exp_sdc);
    v.set("mean_shift_distance", r.distances.mean());
    return v;
}

/**
 * The result *sections* alone — the part of the document that must
 * be bit-identical between an uninterrupted run and a kill/resume
 * pair. experimentResultDigest hashes exactly this object.
 */
JsonValue
resultSectionsToJson(const ExperimentResult &result)
{
    const ExperimentSpec &spec = result.spec;
    JsonValue doc = JsonValue::object();
    if (result.has_matrix) {
        JsonValue m = JsonValue::object();
        m.set("workloads", toJson(spec.matrix.workloads));
        m.set("options", toJson(spec.matrix.options));
        JsonValue results = JsonValue::array();
        for (const WorkloadMatrixRow &row : result.matrix)
            for (size_t o = 0; o < row.results.size(); ++o)
                results.push(simResultToJson(
                    row.profile.name, spec.matrix.options[o],
                    row.results[o]));
        m.set("results", std::move(results));
        doc.set("matrix", std::move(m));
    }
    if (result.has_campaign)
        doc.set("campaign", campaignResultToJson(result.campaign));
    if (result.has_stress)
        doc.set("stress", stressResultToJson(result.stress));
    if (result.has_mc)
        doc.set("montecarlo", toJson(result.mc));
    return doc;
}

} // anonymous namespace

// --- journal identity ------------------------------------------------

JournalHeader
makeJournalHeader(const ExperimentSpec &spec, size_t cells)
{
    JournalHeader header;
    header.name = spec.name;
    header.spec_sha256 = experimentSpecHash(spec);
    header.matrix_seed = spec.matrix.seed;
    header.campaign_seed = spec.campaign.config.seed;
    header.stress_seed = spec.stress.seed;
    header.mc_seed = spec.montecarlo.seed;
    header.cells = static_cast<uint64_t>(cells);
    return header;
}

std::string
journalResumeError(const JournalFile &journal,
                   const ExperimentSpec &spec, size_t cells)
{
    if (!journal.has_header)
        return "journal has no intact header record";
    // Every header field (spec hash, section seeds, cell count)
    // identifies the run; the first that differs is reported.
    const JournalHeader want = makeJournalHeader(spec, cells);
    FieldsEqual eq;
    forEachField(eq, journal.header, want);
    return eq.equal ? "" : "journal belongs to another run: " +
                               eq.mismatch;
}

// --- whole-spec runs -------------------------------------------------

ExperimentResult
runExperiment(const ExperimentSpec &spec_in,
              const PositionErrorModel *model,
              TelemetryScope telemetry, const RunControl &control)
{
    ExperimentResult res;
    res.spec = spec_in;
    normalizeExperimentSpec(&res.spec);
    const ExperimentSpec &spec = res.spec;

    ExperimentEngine engine;
    PaperCalibratedErrorModel default_model;
    const PositionErrorModel *matrix_model =
        model ? model : &default_model;

    // Pre-size every result slot; cells write into them in place.
    res.has_matrix = spec.matrix.enabled;
    res.has_campaign = spec.campaign.enabled;
    res.has_stress = spec.stress.enabled;
    res.has_mc = spec.montecarlo.enabled;
    const size_t options = spec.matrix.options.size();
    if (res.has_matrix) {
        for (const std::string &name : spec.matrix.workloads)
            res.matrix.push_back(WorkloadMatrixRow{
                parsecProfile(name), std::vector<SimResult>(options)});
    }
    if (res.has_campaign) {
        res.campaign.cells.resize(spec.campaign.scenarios.size() *
                                  spec.campaign.workloads.size());
        engine.requestRingCapacity(
            spec.campaign.config.telemetry_ring_capacity);
    }

    // One engine cell per expanded cell, in expansion order. A cell
    // body reads only the spec and its own slot, so the results are
    // independent of the worker count and of how cells interleave.
    const std::vector<ExperimentCell> cells = expandCells(spec);
    for (const ExperimentCell &c : cells) {
        ExperimentEngine::Cell cell;
        cell.label = c.label();
        // The body stores run(shard, stop) in `slot`; the checkpoint
        // is the slot's field list.
        auto bind = [&cell](auto *slot, auto run) {
            cell.body = [slot, run](TelemetryScope t, StopFlag *stop) {
                *slot = run(t, stop);
            };
            cell.save = [slot] { return toJson(*slot); };
            cell.load = [slot](const JsonValue &doc) {
                return fromJson(doc, slot);
            };
        };
        switch (c.kind) {
          case ExperimentCell::Kind::Matrix: {
            SimResult *slot = &res.matrix[c.local_index / options]
                                   .results[c.local_index % options];
            bind(slot, [cfg = matrixCellConfig(spec, c.option),
                        profile = scaledProfile(parsecProfile(c.workload),
                                                spec.matrix.divisor),
                        matrix_model](TelemetryScope t, StopFlag *stop) {
                SimConfig run = cfg;
                run.telemetry = t;
                run.stop = stop;
                SimResult r = simulate(profile, run, matrix_model);
                if (t)
                    t->counter("runner.cells").add();
                return r;
            });
            // A matrix row also names its workload and option.
            cell.save = [slot, workload = c.workload, opt = c.option] {
                return simResultToJson(workload, opt, *slot);
            };
            cell.load = [slot](const JsonValue &doc) {
                return simResultFromJson(doc, slot);
            };
            break;
          }
          case ExperimentCell::Kind::Campaign:
            bind(&res.campaign.cells[c.local_index],
                 [scenario = c.scenario, profile = parsecProfile(c.workload),
                  config = spec.campaign.config,
                  seed = mixSeed(spec.campaign.config.seed, c.local_index)](
                     TelemetryScope t, StopFlag *stop) {
                     return runFaultDrill(scenario, profile, config, seed,
                                          t, stop);
                 });
            break;
          case ExperimentCell::Kind::Stress:
            bind(&res.stress, [s = spec.stress](TelemetryScope t,
                                                StopFlag *stop) {
                return runStressDrill(s, t, stop);
            });
            break;
          case ExperimentCell::Kind::MonteCarlo:
            bind(&res.mc, [s = spec.montecarlo](TelemetryScope t,
                                                StopFlag *stop) {
                return runMcCell(s, t, stop);
            });
            break;
        }
        engine.addCell(std::move(cell));
    }

    res.cells = cells.size();
    engine.setCancelToken(control.cancel);
    engine.setResilience(spec.resilience);
    if (control.fault_hook)
        engine.setFaultHook(control.fault_hook);
    if (control.on_cell)
        engine.setOutcomeCallback(control.on_cell);

    // Resume: replay every intact journaled cell into its slot.
    // A record that fails to load (index drift, malformed payload)
    // is not fatal — the cell simply re-runs.
    std::vector<JournalRecord> replayed;
    if (!control.resume_path.empty()) {
        JournalFile journal;
        std::string error;
        if (!readJournal(control.resume_path, &journal, &error))
            rtm_fatal("--resume: %s", error.c_str());
        error = journalResumeError(journal, spec, res.cells);
        if (!error.empty())
            rtm_fatal("--resume %s: %s",
                      control.resume_path.c_str(), error.c_str());
        for (JournalRecord &record : journal.records) {
            if (engine.replayCell(
                    static_cast<size_t>(record.index),
                    record.result))
                replayed.push_back(std::move(record));
        }
    }

    // Checkpoint stream. Resuming into the same file appends after
    // the records just replayed; a fresh stream gets the header plus
    // re-emitted replayed records so it is self-contained.
    JournalWriter journal;
    if (!control.stream_path.empty()) {
        const bool append =
            control.stream_path == control.resume_path;
        std::string error;
        if (!journal.open(control.stream_path, append, &error))
            rtm_fatal("--stream-out: %s", error.c_str());
        if (!append) {
            journal.appendHeader(
                makeJournalHeader(spec, res.cells));
            for (const JournalRecord &record : replayed)
                journal.appendRecord(record);
        }
        engine.setJournal(&journal);
    }

    engine.run(telemetry);

    // One count per CellStatus (in enum order), feeding both the
    // result and the root telemetry.
    res.outcomes = engine.outcomes();
    uint64_t *const tally[] = {&res.ok_cells, &res.failed_cells,
                               &res.timed_out_cells,
                               &res.cancelled_cells,
                               &res.replayed_cells};
    for (const CellOutcome &outcome : res.outcomes)
        ++*tally[static_cast<size_t>(outcome.status)];
    static constexpr const char *kTallyCounters[] = {
        "experiment.cells_ok", "experiment.cells_failed",
        "experiment.cells_timed_out", "experiment.cells_cancelled",
        "experiment.cells_replayed"};
    if (telemetry)
        for (size_t s = 0; s < std::size(tally); ++s)
            telemetry->counter(kTallyCounters[s]).add(*tally[s]);
    res.interrupted =
        res.cancelled_cells > 0 || res.timed_out_cells > 0;

    if (res.has_campaign)
        finalizeCampaignTotals(&res.campaign);

    if (journal.isOpen() && !journal.close())
        rtm_fatal("checkpoint journal '%s': write failed "
                  "(disk full?) — stream is not resumable",
                  control.stream_path.c_str());
    return res;
}

// --- result export ---------------------------------------------------

std::string
experimentResultDigest(const ExperimentResult &result)
{
    const std::string text = resultSectionsToJson(result).dump(0);
    return sha256Hex(text.data(), text.size());
}

JsonValue
experimentResultToJson(const ExperimentResult &result)
{
    const ExperimentSpec &spec = result.spec;
    JsonValue doc = JsonValue::object();
    doc.set("name", spec.name);
    doc.set("cells", static_cast<uint64_t>(result.cells));
    doc.set("spec", experimentSpecToJson(spec));
    JsonValue sections = resultSectionsToJson(result);
    const std::string text = sections.dump(0);
    doc.set("digest", sha256Hex(text.data(), text.size()));
    for (auto &member : sections.members())
        doc.set(member.first, member.second);

    JsonValue resilience = JsonValue::object();
    resilience.set("ok", result.ok_cells);
    resilience.set("failed", result.failed_cells);
    resilience.set("timed_out", result.timed_out_cells);
    resilience.set("cancelled", result.cancelled_cells);
    resilience.set("replayed", result.replayed_cells);
    resilience.set("interrupted", result.interrupted);
    JsonValue outcomes = JsonValue::array();
    for (size_t i = 0; i < result.outcomes.size(); ++i) {
        const CellOutcome &o = result.outcomes[i];
        if (o.status == CellStatus::Ok ||
            o.status == CellStatus::Skipped)
            continue;
        JsonValue entry = JsonValue::object();
        entry.set("index", static_cast<uint64_t>(i));
        entry.set("label", o.label);
        entry.set("status", cellStatusToken(o.status));
        if (!o.error.empty())
            entry.set("error", o.error);
        entry.set("attempts", o.attempts);
        outcomes.push(std::move(entry));
    }
    if (outcomes.size() > 0)
        resilience.set("outcomes", std::move(outcomes));
    doc.set("resilience", std::move(resilience));
    return doc;
}

bool
writeExperimentJson(const ExperimentResult &result,
                    const std::string &path)
{
    return saveJsonFile(path, experimentResultToJson(result));
}

} // namespace rtm
