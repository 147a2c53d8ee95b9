/**
 * @file
 * The LLC options of the Fig. 14/16-18 matrix sweep, their catalogues
 * and the per-workload result row. The sweep itself is an experiment
 * spec's matrix section: runExperiment (sim/experiment.hh) schedules
 * one cell per (workload, option) pair of expandCells(spec).
 */

#ifndef RTM_SIM_RUNNER_HH
#define RTM_SIM_RUNNER_HH

#include <string>
#include <vector>

#include "sim/system.hh"

namespace rtm
{

/** One LLC configuration of the Fig. 16-18 comparison. */
struct LlcOption
{
    std::string label;
    MemTech tech = MemTech::SRAM;
    Scheme scheme = Scheme::Baseline;

    // Racetrack placement / port-scheduling axes (ignored by
    // SRAM/STT-RAM options). The defaults reproduce the historical
    // behaviour bit-identically.
    PlacementKind placement = PlacementKind::Static;
    uint64_t placement_epoch = 64;  //!< per-group epoch accesses
    int placement_swap_budget = 4;  //!< adaptive swaps per epoch
    HeadPolicy head_policy = HeadPolicy::Stay;

    bool operator==(const LlcOption &) const = default;
};

/**
 * Keys of an option's `placement` object; a spec's matrix-level
 * `placement` default uses them too.
 */
template <class V, FieldsOf<LlcOption>... O>
void
placementFields(V &&v, O &...o)
{
    v("policy", o.placement...);
    v("epoch", o.placement_epoch...);
    v("swap_budget", o.placement_swap_budget...);
    v("head", o.head_policy...);
}

/** Spec keys of an LLC option (util/fields.hh). */
template <class V, FieldsOf<LlcOption>... O>
void
forEachField(V &&v, O &...o)
{
    v("label", o.label...);
    v("tech", o.tech...);
    v("scheme", o.scheme...);
    v("placement", SubObject{[&](auto &p) { placementFields(p, o...); }});
}

/** The paper's standard comparison set (Fig. 16-18 legends). */
std::vector<LlcOption> standardLlcOptions();

/** The paper's racetrack protection set (Fig. 14 legend). */
std::vector<LlcOption> racetrackSchemeOptions();

/** The shift-code family (lm-pos, del-ins-k) with a p-ECC anchor. */
std::vector<LlcOption> shiftCodeLlcOptions();

/** Results for one workload across every option. */
struct WorkloadMatrixRow
{
    WorkloadProfile profile;
    std::vector<SimResult> results; //!< one per option, same order
};

/**
 * Shrink a workload's working set by the hierarchy capacity divisor
 * (see HierarchyConfig::capacity_divisor), keeping every other
 * characteristic intact.
 */
WorkloadProfile scaledProfile(WorkloadProfile profile,
                              uint64_t divisor);

/** Geometric mean over positive values. */
double geomean(const std::vector<double> &values);

} // namespace rtm

#endif // RTM_SIM_RUNNER_HH
