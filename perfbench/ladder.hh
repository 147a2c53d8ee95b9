/**
 * @file
 * The per-layer ladder of the traced benchmark run.
 *
 * Each step drives one section of an experiment spec through the
 * layers' public functions, with spans around every call, and checks
 * that the replay reproduces what the engine computed for the same
 * cell:
 *
 *  - matrix: simulate() itself, then a replay of its request loop
 *    that times the Hierarchy constructor, WorkloadGenerator::next()
 *    and Hierarchy::access() separately (sampled accesses also timed
 *    one by one and grouped by the deepest level they reached);
 *  - campaign: runFaultDrill(), then a replay of its controller loop
 *    (ShiftController::read/write) and of its bank drill
 *    (RmBank::accessFrame on the live planner);
 *  - stress: a replay of the stripe drill timing
 *    ReliabilityModel::sequence() and ProtectedStripe::readoutNow();
 *  - montecarlo: PositionErrorMonteCarlo::run() and fitModel().
 */

#ifndef RTM_PERFBENCH_LADDER_HH
#define RTM_PERFBENCH_LADDER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "control/controller.hh"
#include "sim/experiment.hh"
#include "tracer.hh"

namespace perfbench
{

/** Deepest hierarchy level an access reached. */
enum Level
{
    kL1,
    kL2,
    kL3,
    kDram,
    kLevels
};

/** Everything the ladder measured and counted, summed over cells. */
struct LayerFigures
{
    // sim / trace / mem: matrix cells.
    uint64_t matrix_cells = 0;
    int64_t simulate_ns = 0;
    int64_t gen_ns = 0;
    int64_t hierarchy_ns = 0;
    uint64_t requests = 0; //!< per cell: warmup + measured
    int64_t level_ns[kLevels] = {};
    uint64_t level_samples[kLevels] = {};
    int64_t hierarchy_build_ns = 0;
    uint64_t l1_accesses = 0, l1_hits = 0;
    uint64_t l2_accesses = 0, l2_hits = 0;
    uint64_t l3_accesses = 0, l3_hits = 0;
    uint64_t rm_accesses = 0, rm_shift_ops = 0, rm_memo_hits = 0;
    uint64_t rm_migrations = 0, rm_redundancy = 0;

    // sim / control / mem / device: campaign cells.
    uint64_t drills = 0;
    int64_t drill_ns = 0;
    int64_t control_ns = 0;
    rtm::ControllerStats controller; //!< summed over replays
    uint64_t injected = 0;
    int64_t rm_live_ns = 0;
    uint64_t rm_live_accesses = 0;

    // codec / model: stress drill.
    int64_t stress_ns = 0;
    int64_t readout_ns = 0;
    uint64_t readouts = 0;
    int64_t sequence_ns = 0;
    uint64_t sequences = 0;

    // device: Monte-Carlo.
    int64_t mc_run_ns = 0;
    uint64_t mc_trials = 0;
    int64_t mc_fit_ns = 0;
    int64_t error_model_ns = 0;
    uint64_t error_models = 0;

    // util.
    int64_t journal_ns = 0;
    uint64_t journal_cells = 0;

    /** Replays that disagreed with the engine or failed a check. */
    std::vector<std::string> failures;
};

/**
 * Which cells of a spec the ladder drives, and the engine's result
 * for them when there is one (null for the probe spec, whose replays
 * are checked against the ladder's own calls only).
 */
struct LadderSection
{
    const rtm::ExperimentSpec *spec = nullptr;
    const rtm::ExperimentResult *engine = nullptr;
    /** Matrix cells replayed: one per workload when true, else all. */
    bool sample_matrix = false;
    /** Offset added to cell ids in the trace (keeps ids unique). */
    int64_t cell_base = 0;
};

void ladderMatrix(Tracer &tracer, const LadderSection &section,
                  LayerFigures *out);
void ladderCampaign(Tracer &tracer, const LadderSection &section,
                    LayerFigures *out);
void ladderStress(Tracer &tracer, const LadderSection &section,
                  LayerFigures *out);
void ladderMonteCarlo(Tracer &tracer, const LadderSection &section,
                      LayerFigures *out);

/** Time construction of the paper-calibrated error model. */
void ladderErrorModel(Tracer &tracer, LayerFigures *out);

/**
 * Serialise every engine cell result and append it to a throwaway
 * checkpoint journal at `path`, as the engine does after each cell.
 */
void ladderJournal(Tracer &tracer, const rtm::ExperimentResult &result,
                   const std::string &path, LayerFigures *out);

} // namespace perfbench

#endif // RTM_PERFBENCH_LADDER_HH
