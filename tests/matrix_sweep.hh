/**
 * @file
 * Test helpers: sweep every PARSEC profile against a list of LLC
 * options as a matrix-only experiment spec (runExperiment), at the
 * spec's default seed; and the SimConfig of one matrix cell, for
 * standalone runs to compare a cell against.
 */

#ifndef RTM_TESTS_MATRIX_SWEEP_HH
#define RTM_TESTS_MATRIX_SWEEP_HH

#include <vector>

#include "sim/experiment.hh"

namespace rtm
{

inline std::vector<WorkloadMatrixRow>
sweepMatrix(const std::vector<LlcOption> &options,
            const PositionErrorModel *model, uint64_t requests,
            uint64_t warmup, uint64_t divisor,
            TelemetryScope telemetry = {})
{
    ExperimentSpec spec;
    spec.matrix.requests = requests;
    spec.matrix.warmup = warmup;
    spec.matrix.divisor = divisor;
    spec.matrix.options = options;
    return runExperiment(spec, model, telemetry).matrix;
}

/**
 * The SimConfig runExperiment gives the matrix cell running `opt`
 * under `spec` (a copy of the engine's private matrixCellConfig;
 * the tests that use it compare against engine cells, so a drift
 * fails them).
 */
inline SimConfig
cellConfig(const ExperimentSpec &spec, const LlcOption &opt)
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

} // namespace rtm

#endif // RTM_TESTS_MATRIX_SWEEP_HH
