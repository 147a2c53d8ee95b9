#include "campaign.hh"

#include "model/tech.hh"
#include "util/parallel.hh"
#include "util/fields.hh"

namespace rtm
{

uint64_t
mixSeed(uint64_t seed, uint64_t index)
{
    uint64_t z = seed + (index + 1) * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

void
CampaignLedger::merge(const CampaignLedger &other)
{
    forEachField(FieldSum{}, *this, other);
}

CampaignCellResult
runFaultDrill(const ScenarioSpec &spec,
              const WorkloadProfile &profile,
              const CampaignConfig &config, uint64_t cell_seed,
              TelemetryScope telemetry, StopFlag *stop)
{
    // Cooperative cancellation stride for both drill loops.
    constexpr uint64_t kStopPollMask = 255;
    CampaignCellResult res;
    res.scenario = spec.name;
    res.workload = profile.name;

    auto base = std::make_shared<PaperCalibratedErrorModel>();
    auto scaled =
        std::make_shared<ScaledErrorModel>(base, config.scale);
    std::unique_ptr<FaultScenario> scenario =
        makeScenario(spec, scaled);

    Rng cell_rng(cell_seed);
    ShiftController ctl(config.pecc, scenario.get(), config.policy,
                        config.peak_ops_per_second, cell_rng.fork(),
                        kDefaultSafeMttfSeconds, config.recovery,
                        telemetry);
    ctl.initialize();

    WorkloadGenerator gen(profile, config.workload_cores,
                          mixSeed(cell_seed, 1));
    const int num_segments = config.pecc.num_segments;
    const int seg_len = config.pecc.seg_len;
    LatencyHistogram *t_lat =
        telemetry ? &telemetry->histogram(
                        "campaign.access_latency_cycles",
                        powerOfTwoEdges(65536.0))
                  : nullptr;
    uint64_t seen_injected = 0;
    Cycles now = 0;
    Cycles prev_recovery = 0;
    for (uint64_t i = 0; i < config.accesses_per_cell; ++i) {
        if (stop && (i & kStopPollMask) == 0 && stop->poll())
            return res;
        MemRequest req = gen.next();
        uint64_t line = req.addr / 64;
        int seg = static_cast<int>(
            line % static_cast<uint64_t>(num_segments));
        int idx = static_cast<int>(
            (line / static_cast<uint64_t>(num_segments)) %
            static_cast<uint64_t>(seg_len));
        AccessResult r =
            req.is_write
                ? ctl.write(seg, idx,
                            (i & 1) ? Bit::One : Bit::Zero, now)
                : ctl.read(seg, idx, now);
        now += r.latency + req.gap_instructions + 1;
        res.access_latency.add(static_cast<double>(r.latency));
        if (telemetry) {
            t_lat->record(static_cast<double>(r.latency));
            // Ground-truth injections that landed during this
            // access: one ErrorInjected event each, reconciled
            // against the scenario ledger by the tests.
            const InjectionLedger &il = scenario->ledger();
            for (; seen_injected < il.injected; ++seen_injected)
                telemetry->event(EventKind::ErrorInjected,
                                 "scenario", now,
                                 static_cast<double>(i));
        }
        const ControllerStats &cs = ctl.stats();
        if (cs.recovery_cycles > prev_recovery) {
            res.recovery_latency.add(static_cast<double>(
                cs.recovery_cycles - prev_recovery));
            prev_recovery = cs.recovery_cycles;
        }
        // Containment action: a reported DUE (or a ground-truth
        // misalignment the code missed — an SDC, already counted by
        // the controller) invalidates the stripe; model the
        // refetch-from-below by rebuilding at home alignment.
        if (r.due || !r.position_ok)
            ctl.initialize();
    }

    const ControllerStats &cs = ctl.stats();
    const InjectionLedger &inj = scenario->ledger();
    res.controller = cs;
    res.ledger.accesses = config.accesses_per_cell;
    res.ledger.injected_samples = inj.samples;
    res.ledger.injected_faults = inj.injected;
    res.ledger.injected_step_errors = inj.step_errors;
    res.ledger.injected_stops = inj.stop_in_middle;
    res.ledger.detected = cs.detected_errors;
    res.ledger.corrected = cs.corrected_errors;
    res.ledger.recovered_retry = cs.recovered_retry;
    res.ledger.recovered_realign = cs.recovered_realign;
    res.ledger.recovered_scrub = cs.recovered_scrub;
    res.ledger.due = cs.unrecoverable;
    res.ledger.sdc = cs.silent_errors;

    // Bank degradation drill: the same scaled model drives an RmBank
    // with injected DUE reports; the bank must degrade gracefully and
    // keep its per-group ledger consistent. Retiring and remapping
    // groups changes which group serves a frame, never what a shift
    // plan costs (the memo key is distance, interval bucket and
    // protection domain), so the drill is served from the plan memo.
    RmBankConfig bank_config;
    bank_config.line_frames = config.bank_frames;
    bank_config.scheme = Scheme::PeccSAdaptive;
    bank_config.group_retry_budget = config.group_retry_budget;
    bank_config.telemetry = telemetry;
    TechParams tech = l3For(MemTech::Racetrack);
    RmBank bank(bank_config, scaled.get(), tech);
    Rng bank_rng(mixSeed(cell_seed, 2));
    Cycles bank_now = 0;
    for (uint64_t i = 0; i < config.accesses_per_cell; ++i) {
        if (stop && (i & kStopPollMask) == 0 && stop->poll())
            return res;
        uint64_t frame = bank_rng.uniformInt(config.bank_frames);
        ShiftCost c = bank.accessFrame(frame, bank_now);
        bank_now += c.latency + 4;
        if (bank_rng.bernoulli(config.bank_due_prob))
            bank.reportUnrecoverable(frame);
    }
    res.bank_due_reports = bank.stats().due_reports;
    res.bank_degraded_groups = bank.stats().degraded_groups;
    res.bank_remapped_accesses = bank.stats().remapped_accesses;
    res.degraded_capacity_fraction = bank.degradedCapacityFraction();

    // Containment checks: every injected fault must be accounted, the
    // ledgers must reconcile, and the cell must end aligned.
    res.violation = controllerLedgerViolation(cs);
    if (res.violation.empty())
        res.violation = bank.ledgerViolation();
    if (res.violation.empty() && cs.detected_errors > inj.injected)
        res.violation = "more detections than injected faults";
    if (res.violation.empty() &&
        ctl.stripe().positionError() != 0) {
        res.violation = "cell ended misaligned";
    }
    res.contained = res.violation.empty();

    if (telemetry) {
        // One counter per ledger field, exported from the reconciled
        // ledger through its field list, so the telemetry can never
        // disagree with CampaignResult totals.
        Telemetry &t = *telemetry.get();
        t.counter("campaign.cells").add();
        forEachField(
            [&t](const char *key, uint64_t value) {
                t.counter(std::string("campaign.") + key).add(value);
            },
            res.ledger);
        t.counter("campaign.bank.due_reports")
            .add(res.bank_due_reports);
        t.counter("campaign.bank.degraded_groups")
            .add(res.bank_degraded_groups);
        t.counter("campaign.bank.remapped_accesses")
            .add(res.bank_remapped_accesses);
        if (!res.contained)
            t.counter("campaign.violations").add();
    }
    return res;
}

void
finalizeCampaignTotals(CampaignResult *out)
{
    out->totals = CampaignLedger();
    out->contained_cells = 0;
    for (const CampaignCellResult &cell : out->cells) {
        out->totals.merge(cell.ledger);
        if (cell.contained)
            ++out->contained_cells;
    }
}

JsonValue
campaignCellToJson(const CampaignCellResult &cell)
{
    return toJson(cell);
}

JsonValue
campaignResultToJson(const CampaignResult &result)
{
    JsonValue doc = JsonValue::object();
    JsonValue cells = JsonValue::array();
    for (const CampaignCellResult &c : result.cells) {
        const CampaignLedger &l = c.ledger;
        JsonValue v = JsonValue::object();
        v.set("scenario", c.scenario);
        v.set("workload", c.workload);
        v.set("accesses", l.accesses);
        v.set("injected_faults", l.injected_faults);
        v.set("detected", l.detected);
        v.set("corrected", l.corrected);
        v.set("recovered_retry", l.recovered_retry);
        v.set("recovered_realign", l.recovered_realign);
        v.set("recovered_scrub", l.recovered_scrub);
        v.set("due", l.due);
        v.set("sdc", l.sdc);
        v.set("mean_access_cycles", c.access_latency.mean());
        v.set("mean_recovery_cycles", c.recovery_latency.mean());
        v.set("bank_degraded_groups", c.bank_degraded_groups);
        v.set("degraded_capacity_fraction",
              c.degraded_capacity_fraction);
        v.set("contained", c.contained);
        v.set("violation", c.violation);
        cells.push(std::move(v));
    }
    doc.set("cells", std::move(cells));
    doc.set("totals", toJson(result.totals));
    doc.set("contained_cells", result.contained_cells);
    doc.set("total_cells",
            static_cast<uint64_t>(result.cells.size()));
    doc.set("containment_coverage",
            result.cells.empty()
                ? 1.0
                : static_cast<double>(result.contained_cells) /
                      static_cast<double>(result.cells.size()));
    return doc;
}

} // namespace rtm
