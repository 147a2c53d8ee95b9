/**
 * @file
 * Memory-technology parameters (paper Table 4) and per-operation
 * protection overheads (paper Table 5).
 *
 * All latencies are in 2 GHz cycles, energies in joules, static power
 * in watts, capacities in bytes. SRAM and STT-RAM numbers come from
 * the paper's NVSim-derived Table 4; racetrack numbers from its
 * circuit-level model. The three LLC options occupy (approximately)
 * the same die area: 4 MB SRAM, 32 MB STT-RAM, 128 MB racetrack.
 */

#ifndef RTM_MODEL_TECH_HH
#define RTM_MODEL_TECH_HH

#include <array>
#include <cstdint>
#include <string>

#include "util/fields.hh"
#include "util/units.hh"

namespace rtm
{

/** Memory technology families evaluated in the paper. */
enum class MemTech
{
    SRAM,
    STTRAM,
    Racetrack,
    RacetrackIdeal //!< shift latency/energy removed (Fig. 16 "ideal")
};

/** Human-readable technology name. */
const char *memTechName(MemTech tech);

/** Stable tokens of the CLI flags and the experiment-spec JSON. */
constexpr auto
enumTokens(MemTech)
{
    return std::to_array<EnumToken<MemTech>>({
        {MemTech::SRAM, "sram"},
        {MemTech::STTRAM, "sttram"},
        {MemTech::Racetrack, "rm"},
        {MemTech::RacetrackIdeal, "rm-ideal"},
    });
}

/** Timing/energy/capacity description of one cache technology. */
struct TechParams
{
    MemTech tech = MemTech::SRAM;
    uint64_t capacity_bytes = 0;
    Cycles read_latency = 0;
    Cycles write_latency = 0;
    Cycles shift_latency_per_step = 0; //!< racetrack only (1-step)
    Joules read_energy = 0.0;
    Joules write_energy = 0.0;
    Joules shift_energy_per_step = 0.0; //!< racetrack only
    double leakage_watts = 0.0;
};

/** Table 4 L3 options. */
TechParams sramL3();
TechParams sttramL3();
TechParams racetrackL3();
TechParams racetrackIdealL3();
TechParams l3For(MemTech tech);

/** Table 4 L1 (per core) parameters. */
TechParams l1Params();

/** Table 4 L2 (per core pair) parameters. */
TechParams l2Params();

/** Table 4 main memory: DDR3-1600 dual channel. */
struct DramParams
{
    Cycles access_latency = 100;
    Joules access_energy = nJ(38.10);
    double bandwidth_bytes_per_s = 12.8e9;
};

DramParams dramParams();

/** Table 5: per-stripe p-ECC operation overheads. */
struct ProtectionOverheads
{
    Seconds detect_time = 0.0;
    Joules detect_energy = 0.0;
    Seconds correct_time = 0.0;
    Joules correct_energy = 0.0;
    double cell_area_overhead = 0.0; //!< fraction of data capacity
    double controller_area_um2 = 0.0;
};

/** Family of the position-error code a scheme protects with. */
enum class CodeKind
{
    None,   //!< no code: every position error is silent
    Cyclic, //!< de Bruijn position code of period 2^w (p-ECC, lm-pos)
    DelIns  //!< interleaved-VT deletion/insertion track code
};

/** Protection flavour for one stripe. */
enum class PeccVariant
{
    None,           //!< unprotected baseline
    Standard,       //!< dedicated p-ECC region (Sec. 4.2.1-4.2.3)
    OverheadRegion, //!< p-ECC-O: code in overhead regions (4.2.4)
    DelIns          //!< interleaved-VT del/ins code (codec/del_ins.hh)
};

/** Spec tokens for the variants. */
constexpr auto
enumTokens(PeccVariant)
{
    return std::to_array<EnumToken<PeccVariant>>({
        {PeccVariant::None, "none"},
        {PeccVariant::Standard, "std"},
        {PeccVariant::OverheadRegion, "overhead"},
        {PeccVariant::DelIns, "del-ins"},
    });
}

/** Shift-policy flavours evaluated in the paper. */
enum class ShiftPolicy
{
    Unconstrained,  //!< one shift per request, any distance
    StepByStep,     //!< 1-step shifts only (p-ECC-O)
    WorstCase,      //!< fixed safe distance from peak intensity
    Adaptive        //!< run-time interval-based selection
};

/** Spec tokens for the policies. */
constexpr auto
enumTokens(ShiftPolicy)
{
    return std::to_array<EnumToken<ShiftPolicy>>({
        {ShiftPolicy::Unconstrained, "unconstrained"},
        {ShiftPolicy::StepByStep, "step"},
        {ShiftPolicy::WorstCase, "worst"},
        {ShiftPolicy::Adaptive, "adaptive"},
    });
}

/** Protection schemes of the evaluation (Figs. 10-18). */
enum class Scheme
{
    Baseline,       //!< RM w/o p-ECC (STS only)
    Sts,            //!< STS driver alone (Table 5 first row)
    SedPecc,        //!< SED p-ECC
    SecdedPecc,     //!< SECDED p-ECC (unconstrained distance)
    PeccO,          //!< SECDED p-ECC-O
    PeccSWorst,     //!< p-ECC-S worst-case safe distance
    PeccSAdaptive,  //!< p-ECC-S adaptive
    LmPos,          //!< limited-magnitude position code (Chee et al.)
    DelIns          //!< k-deletion/insertion track code (Sima-Bruck)
};

/** Everything the layers ask of one protection scheme. */
struct SchemeRow
{
    Scheme scheme;
    const char *token; //!< CLI flag and experiment-spec token
    const char *name;  //!< human-readable name
    CodeKind code;
    /**
     * Correction radius the shift code claims: the largest
     * per-operation position error |e| decoded back to the exact
     * data (k for del-ins). -1 without a code, 0 for detect-only SED.
     */
    int radius;
    /**
     * Code window ports w of a cyclic code, as
     * PeccConfig::window_ports: 0 keeps the paper's w = m + 1.
     */
    int window;
    PeccVariant variant;   //!< stripe layout
    ShiftPolicy policy;    //!< how the bank decomposes shifts
    bool in_path_check;    //!< every shift pays the window check
    bool stripe_drill;     //!< the stress drill can exercise it
    ProtectionOverheads overheads; //!< Table 5 row

    /** Period T = 2^w of the cyclic code; 0 for the other kinds. */
    constexpr int period() const
    {
        return code == CodeKind::Cyclic
                   ? 1 << (window > 0 ? window : radius + 1)
                   : 0;
    }
};

/**
 * The scheme table, one row per Scheme in enumerator order. Table 5
 * numbers are the paper's 45 nm synthesis; SED shares the SECDED row
 * and Baseline costs nothing.
 */
inline constexpr SchemeRow kSchemeRows[] = {
    {Scheme::Baseline, "baseline", "Baseline", CodeKind::None, -1, 0,
     PeccVariant::None, ShiftPolicy::Unconstrained, false, true, {}},
    {Scheme::Sts, "sts", "STS", CodeKind::None, -1, 0,
     PeccVariant::None, ShiftPolicy::Unconstrained, false, false,
     {ns(0.82), pJ(1.31), ns(0.82), pJ(1.31), 0.0, 1.94}},
    {Scheme::SedPecc, "sed", "SED p-ECC", CodeKind::Cyclic, 0, 0,
     PeccVariant::Standard, ShiftPolicy::Unconstrained, true, true,
     {ns(0.34), pJ(3.73), ns(1.34), pJ(6.16), 0.176, 54.0}},
    {Scheme::SecdedPecc, "secded", "SECDED p-ECC", CodeKind::Cyclic, 1,
     0, PeccVariant::Standard, ShiftPolicy::Unconstrained, true, true,
     {ns(0.34), pJ(3.73), ns(1.34), pJ(6.16), 0.176, 54.0}},
    {Scheme::PeccO, "pecc-o", "SECDED p-ECC-O", CodeKind::Cyclic, 1, 0,
     PeccVariant::OverheadRegion, ShiftPolicy::StepByStep, true, true,
     {ns(0.34), pJ(3.74), ns(1.34), pJ(9.90), 0.157, 54.0}},
    {Scheme::PeccSWorst, "worst", "p-ECC-S worst", CodeKind::Cyclic, 1,
     0, PeccVariant::Standard, ShiftPolicy::WorstCase, true, false,
     {ns(0.38), pJ(3.75), ns(1.35), pJ(6.17), 0.176, 54.3}},
    {Scheme::PeccSAdaptive, "adaptive", "p-ECC-S adaptive",
     CodeKind::Cyclic, 1, 0, PeccVariant::Standard,
     ShiftPolicy::Adaptive, true, false,
     {ns(0.61), pJ(3.86), ns(1.37), pJ(6.19), 0.176, 109.4}},
    // w = 3 window, T = 8 >= 2m + 2. Not in the paper's Table 5:
    // estimated by scaling the SECDED row for the one extra window
    // port / comparator stage (w = 3 vs 2).
    {Scheme::LmPos, "lm-pos", "lm-pos", CodeKind::Cyclic, 2, 3,
     PeccVariant::Standard, ShiftPolicy::Unconstrained, true, true,
     {ns(0.38), pJ(4.10), ns(1.34), pJ(6.80), 0.185, 61.0}},
    // k = 2 deletions/insertions per readout. Estimate: the
    // VT-syndrome decoder is combinational per class, but detection
    // is folded into the streaming readout; storage overhead is the
    // per-track check bits (~log2 L per interleave class) instead of
    // a dedicated code region.
    {Scheme::DelIns, "del-ins-k", "del-ins-k", CodeKind::DelIns, 2, 0,
     PeccVariant::DelIns, ShiftPolicy::Unconstrained, true, true,
     {ns(0.34), pJ(4.40), ns(1.50), pJ(8.20), 0.130, 88.0}},
};

/** Row i describes Scheme(i), and every enumerator has a row. */
constexpr bool
schemeRowsAreIndexed()
{
    for (size_t i = 0; i < std::size(kSchemeRows); ++i)
        if (static_cast<size_t>(kSchemeRows[i].scheme) != i)
            return false;
    return std::size(kSchemeRows) ==
           static_cast<size_t>(Scheme::DelIns) + 1;
}
static_assert(schemeRowsAreIndexed());

constexpr const SchemeRow &
schemeRow(Scheme scheme)
{
    return kSchemeRows[static_cast<size_t>(scheme)];
}

/** Stable tokens of the CLI flags and the experiment-spec JSON. */
constexpr auto
enumTokens(Scheme)
{
    std::array<EnumToken<Scheme>, std::size(kSchemeRows)> tokens{};
    for (size_t i = 0; i < tokens.size(); ++i)
        tokens[i] = {kSchemeRows[i].scheme, kSchemeRows[i].token};
    return tokens;
}

/** Human-readable scheme name. */
inline const char *
schemeName(Scheme scheme)
{
    return schemeRow(scheme).name;
}

/** SchemeRow::radius: shared by the analytic reliability model and
 *  the bank's shift planner (which clamps at 0). */
inline int
schemeCorrectionStrength(Scheme scheme)
{
    return schemeRow(scheme).radius;
}

/** Table 5 row for a scheme. */
inline ProtectionOverheads
overheadsFor(Scheme scheme)
{
    return schemeRow(scheme).overheads;
}

/**
 * In-path check latency a scheme with SchemeRow::in_path_check folds
 * into each shift op: the basic window decode of the SECDED row. The
 * richer p-ECC-S controllers report longer detection in Table 5
 * (0.38/0.61 ns), but that extra logic pipelines with the next
 * operation rather than stretching every shift - consistent with the
 * paper's measurement that the adaptive scheme has the *lowest*
 * overall latency overhead.
 */
inline constexpr Seconds kInPathCheckSeconds =
    schemeRow(Scheme::SecdedPecc).overheads.detect_time;

} // namespace rtm

#endif // RTM_MODEL_TECH_HH
