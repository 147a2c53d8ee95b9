/**
 * @file
 * Figures 10, 11, 14, 16, 17 and 18: the paper's LLC evaluation
 * (Sec. 6.1), from one run of every PARSEC workload on each LLC
 * option any of them shows, on the scaled hierarchy (see
 * HierarchyConfig::capacity_divisor). Each figure picks its columns
 * by (tech, scheme). A cell depends only on the sizing, its option
 * and its workload, so each figure reads what a matrix of its own
 * columns alone would give.
 */

#include <cstdio>
#include <functional>
#include <optional>

#include "common.hh"
#include "sim/experiment.hh"
#include "util/logging.hh"

using namespace rtm;

namespace
{

using Metric = double (*)(const SimResult &);
using Format = std::function<std::string(double)>;
/** Per matrix column, one value per workload (row order). */
using Series = std::vector<std::vector<double>>;

/** Figs. 16-18: the standard options, then lm-pos and del-ins-k. */
std::vector<LlcOption>
systemOptions()
{
    std::vector<LlcOption> options = standardLlcOptions();
    for (const LlcOption &o : shiftCodeLlcOptions())
        if (o.scheme == Scheme::LmPos || o.scheme == Scheme::DelIns)
            options.push_back(o);
    return options;
}

/** The matrix's rows, and its columns found by (tech, scheme). */
struct Matrix
{
    std::vector<LlcOption> options;
    std::vector<WorkloadMatrixRow> rows;

    size_t
    column(MemTech tech, Scheme scheme) const
    {
        for (size_t c = 0; c < options.size(); ++c)
            if (options[c].tech == tech && options[c].scheme == scheme)
                return c;
        rtm_panic("llc_figures: no column for %s / %s",
                  memTechName(tech), schemeName(scheme));
    }

    std::vector<size_t>
    racetrack(const std::vector<Scheme> &schemes) const
    {
        std::vector<size_t> cols;
        for (Scheme s : schemes)
            cols.push_back(column(MemTech::Racetrack, s));
        return cols;
    }

    /** metric() of every cell; divided by column `base`'s value in
     *  the same row when `base` is given. */
    Series
    values(Metric metric, std::optional<size_t> base = {}) const
    {
        Series s(options.size());
        for (const auto &row : rows)
            for (size_t c = 0; c < options.size(); ++c)
                s[c].push_back(metric(row.results[c]) /
                               (base ? metric(row.results[*base]) : 1.0));
        return s;
    }

    /** One row per workload of `s` in columns `cols`, then their
     *  geomean; left unprinted so a figure can add rows. */
    TextTable
    table(std::vector<std::string> header,
          const std::vector<size_t> &cols, const Series &s,
          const Format &fmt) const
    {
        TextTable t(std::move(header));
        for (size_t w = 0; w < rows.size(); ++w) {
            std::vector<std::string> cells = {rows[w].profile.name};
            for (size_t c : cols)
                cells.push_back(fmt(s[c][w]));
            t.addRow(cells);
        }
        std::vector<std::string> gm = {"geomean"};
        for (size_t c : cols)
            gm.push_back(fmt(geomean(s[c])));
        t.addRow(gm);
        return t;
    }
};

/**
 * Figs. 16-18's table: `metric` per workload on systemOptions(),
 * normalised to SRAM and headed by the options' labels, with the
 * mean shifts per LLC access below when `shifts` is set (0 for the
 * SRAM/STT options, which never shift). Returns the ratios.
 */
Series
systemTable(const Matrix &m, Metric metric, bool shifts)
{
    std::vector<size_t> cols;
    std::vector<std::string> header = {"workload"};
    for (const LlcOption &o : systemOptions()) {
        cols.push_back(m.column(o.tech, o.scheme));
        header.push_back(o.label);
    }
    const Series s = m.values(metric, cols[0]);
    TextTable t = m.table(header, cols, s, [](double v) {
        return TextTable::fixed(v, 3);
    });
    if (shifts) {
        std::vector<std::string> spa = {"sh/acc"};
        for (size_t c : cols) {
            double sum = 0.0;
            for (const auto &row : m.rows)
                sum += row.results[c].shiftsPerAccess();
            spa.push_back(TextTable::fixed(sum / m.rows.size(), 3));
        }
        t.addRow(spa);
    }
    t.print(stdout);
    return s;
}

/** Geomean overhead of each protected racetrack column over RM w/o
 *  p-ECC, as Figs. 16 and 17 print it. */
void
printOverheads(const Matrix &m, const Series &s, int digits)
{
    const double rm =
        geomean(s[m.column(MemTech::Racetrack, Scheme::Baseline)]);
    const std::pair<const char *, Scheme> schemes[] = {
        {"p-ECC-O", Scheme::PeccO},
        {"p-ECC-S adaptive", Scheme::PeccSAdaptive},
        {"p-ECC-S worst", Scheme::PeccSWorst},
        {"lm-pos", Scheme::LmPos},
        {"del-ins-k", Scheme::DelIns},
    };
    for (const auto &[name, scheme] : schemes) {
        double g = geomean(s[m.column(MemTech::Racetrack, scheme)]);
        std::printf("  %-18s+%.*f%%\n", name, digits,
                    100.0 * (g / rm - 1.0));
    }
}

/**
 * Figure 10: SDC MTTF. Baseline (no p-ECC) turns every position
 * error into silent corruption; SED leaves only even-step aliases
 * silent; SECDED leaves only |k| >= 3 miscorrection aliases.
 */
void
fig10(const Matrix &m)
{
    banner("Figure 10", "SDC MTTF under different protection");
    m.table({"workload", "Baseline", "SED p-ECC", "SECDED p-ECC",
             "lm-pos", "del-ins-k"},
            m.racetrack({Scheme::Baseline, Scheme::SedPecc,
                         Scheme::SecdedPecc, Scheme::LmPos,
                         Scheme::DelIns}),
            m.values([](const SimResult &r) { return r.sdc_mttf; }),
            mttfCell)
        .print(stdout);

    std::printf("\npaper anchors: baseline 1.33 us; SED ~3.6e5 s; "
                "SECDED > 1000 years\n");
    std::printf("shape claims: baseline << SED << SECDED; SECDED "
                "meets the 1000-year SDC target\n");
    std::printf("shift-code family: lm-pos (w=3, m=2) pushes the "
                "first silent alias from |k|=3 to |k|=4; del-ins-k "
                "(k=2) has no in-model silent channel at all -- its "
                "SDC column is bounded by multi-burst readouts "
                "only\n");
}

/**
 * Figure 11: DUE MTTF. SED detects +/-1 errors but cannot correct
 * them (direction is ambiguous); SECDED corrects +/-1 and leaves
 * only the +/-2 alias; the safe-distance schemes shrink that alias
 * rate by capping shift distances; p-ECC-O caps them at one step.
 */
void
fig11(const Matrix &m)
{
    banner("Figure 11", "DUE MTTF under different protection");
    const std::vector<std::string> header = {
        "workload", "SED",        "SECDED", "p-ECC-O",
        "S-worst",  "S-adaptive", "lm-pos", "del-ins-k"};
    const auto cols = m.racetrack(
        {Scheme::SedPecc, Scheme::SecdedPecc, Scheme::PeccO,
         Scheme::PeccSWorst, Scheme::PeccSAdaptive, Scheme::LmPos,
         Scheme::DelIns});
    const Series due =
        m.values([](const SimResult &r) { return r.due_mttf; });
    m.table(header, cols, due, mttfCell).print(stdout);

    std::printf("\n10-year DUE target met per scheme (count of 12 "
                "workloads):\n");
    for (size_t i = 0; i < cols.size(); ++i) {
        int ok = 0;
        for (double v : due[cols[i]])
            ok += v >= 10 * kSecondsPerYear;
        std::printf("  %-12s %d/12\n", header[i + 1].c_str(), ok);
    }
    std::printf("\npaper anchors: SECDED ~1e5 s; worst 532 years; "
                "adaptive 69 years (both safe-distance schemes meet "
                "the 10-year target)\n");
}

/**
 * Figure 14: total shift latency, normalised to the unprotected
 * racetrack. p-ECC-O roughly doubles it (1-step maximum distance);
 * the safe-distance schemes cut the overhead to tens of percent.
 */
void
fig14(const Matrix &m)
{
    banner("Figure 14", "normalised total shift latency");
    const auto cols =
        m.racetrack({Scheme::Baseline, Scheme::PeccO,
                     Scheme::PeccSAdaptive, Scheme::PeccSWorst});
    const Series latency = m.values(
        [](const SimResult &r) { return double(r.shift_cycles); },
        cols[0]);
    m.table({"workload", "baseline", "p-ECC-O", "S-adaptive",
             "S-worst"},
            cols, latency,
            [](double v) { return TextTable::fixed(v, 2); })
        .print(stdout);

    std::printf("\npaper anchors: p-ECC-O ~2x baseline; p-ECC-S "
                "worst ~1.23x; adaptive below worst\n");
}

/**
 * Figure 16: execution time, normalised to the SRAM LLC.
 * Capacity-sensitive workloads speed up markedly on the 32x-larger
 * racetrack LLC; insensitive ones barely move; protection costs a
 * few percent at most (paper: adaptive cheapest, ~0.2%).
 */
void
fig16(const Matrix &m)
{
    banner("Figure 16", "normalised execution time");
    const Series time = systemTable(
        m, [](const SimResult &r) { return double(r.cycles); }, true);

    std::printf("\nprotection overhead vs RM w/o p-ECC:\n");
    printOverheads(m, time, 2);
    const auto &ideal =
        time[m.column(MemTech::RacetrackIdeal, Scheme::Baseline)];
    std::vector<double> sensitive;
    for (size_t w = 0; w < m.rows.size(); ++w)
        if (m.rows[w].profile.capacity_sensitive)
            sensitive.push_back(ideal[w]);
    std::printf("\ncapacity-sensitive geomean vs SRAM: RM-ideal "
                "%.3f (insensitive workloads stay ~1.0)\n",
                geomean(sensitive));
    std::printf("paper anchors: p-ECC-O ~+2%%, worst ~+0.5%%, "
                "adaptive ~+0.2%%\n");
}

/**
 * Figure 17: LLC dynamic energy, normalised to the SRAM LLC. Similar
 * across SRAM, STT-RAM and the unprotected racetrack; protection adds
 * shift-path energy, p-ECC-O most (every step pays its own stage-2
 * pulse plus a window check).
 */
void
fig17(const Matrix &m)
{
    banner("Figure 17", "normalised LLC dynamic energy");
    const Series energy = systemTable(
        m, [](const SimResult &r) { return r.cache_dynamic_energy; },
        true);

    std::printf("\nLLC dynamic-energy overhead vs RM w/o p-ECC:\n");
    printOverheads(m, energy, 1);
    std::printf("paper anchors: p-ECC-O +46%%, worst +14%%, "
                "adaptive +20%%\n");
}

/**
 * Figure 18: total memory-system energy (every cache level's dynamic
 * and leakage energy plus DRAM dynamic energy), normalised to the
 * SRAM LLC. The non-volatile LLCs roughly halve it, protected or
 * not: their larger capacity absorbs misses, so fewer DRAM accesses
 * (measured phase, warmup excluded) offset the detection energy.
 */
void
fig18(const Matrix &m)
{
    banner("Figure 18", "normalised total energy");
    const Series energy = systemTable(
        m, [](const SimResult &r) { return r.totalEnergy(); }, false);

    const Series dram = m.values(
        [](const SimResult &r) { return double(r.dram_accesses); },
        m.column(MemTech::SRAM, Scheme::Baseline));
    std::printf("\nenergy reduction vs SRAM (geomean) "
                "[DRAM accesses vs SRAM]:\n");
    for (const LlcOption &o : systemOptions()) {
        const size_t c = m.column(o.tech, o.scheme);
        std::printf("  %-20s %5.1f%%   [%.3fx]\n", o.label.c_str(),
                    100.0 * (1.0 - geomean(energy[c])),
                    geomean(dram[c]));
    }
    std::printf("paper anchors: STT-RAM 53.1%%; p-ECC-O 53.1%%; "
                "adaptive 54.1%%\n");
}

} // namespace

int
main()
{
    reportParallelism();

    // Every option a figure shows: Figs. 16-18's, then the two p-ECC
    // codes that only Figs. 10 and 11 compare.
    ExperimentSpec spec;
    spec.name = "llc-figures";
    spec.matrix.requests = kBenchRequests;
    spec.matrix.warmup = kBenchWarmup;
    spec.matrix.divisor = kBenchDivisor;
    spec.matrix.options = systemOptions();
    spec.matrix.options.push_back(
        {"RM SED p-ECC", MemTech::Racetrack, Scheme::SedPecc});
    spec.matrix.options.push_back(
        {"RM SECDED p-ECC", MemTech::Racetrack, Scheme::SecdedPecc});
    normalizeExperimentSpec(&spec);
    PaperCalibratedErrorModel model;
    const Matrix m{spec.matrix.options,
                   runExperiment(spec, &model).matrix};

    fig10(m);
    fig11(m);
    fig14(m);
    fig16(m);
    fig17(m);
    fig18(m);
    return 0;
}
