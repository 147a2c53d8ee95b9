/**
 * @file
 * Test helpers: sweep every PARSEC profile against a list of LLC
 * options as a matrix-only experiment spec (runExperiment), at the
 * spec's default seed.
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

} // namespace rtm

#endif // RTM_TESTS_MATRIX_SWEEP_HH
