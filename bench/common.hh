/**
 * @file
 * Shared helpers for the per-figure benchmark harnesses.
 *
 * Each bench binary regenerates the rows/series of one table or
 * figure of the paper's evaluation, or, for llc_figures, the six
 * figures of its LLC matrix. Absolute values reflect this
 * repository's simulator substrate; EXPERIMENTS.md records the
 * paper-vs-measured comparison.
 */

#ifndef RTM_BENCH_COMMON_HH
#define RTM_BENCH_COMMON_HH

#include <cstdio>
#include <string>
#include <vector>

#include "sim/runner.hh"
#include "util/parallel.hh"
#include "util/prob.hh"
#include "util/table.hh"
#include "util/units.hh"

namespace rtm
{

/**
 * Print a bench banner naming the figure/table reproduced.
 * pin_stdout.cmake cuts llc_figures' stdout before each opening rule
 * followed by `Figure` (its `mark`): keep the two in step.
 */
inline void
banner(const char *id, const char *title)
{
    std::printf("==============================================\n");
    std::printf("%s: %s\n", id, title);
    std::printf("==============================================\n");
}

/**
 * Report how many workers the Monte-Carlo / matrix loops fan out to.
 * Results are bit-identical at any worker count (sharded RNG), so
 * this only affects wall-clock.
 */
inline void
reportParallelism()
{
    std::printf("workers: %u thread(s) [RTM_THREADS overrides]\n",
                ThreadPool::global().threads());
}

/** Format seconds as both scientific and human-readable text. */
inline std::string
mttfCell(double seconds)
{
    char human[64];
    formatDuration(seconds, human, sizeof(human));
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.3g s (%s)", seconds, human);
    return buf;
}

/** Default simulation sizing shared by the workload benches. */
constexpr uint64_t kBenchRequests = 60000;
constexpr uint64_t kBenchWarmup = 8000;
constexpr uint64_t kBenchDivisor = 16;

} // namespace rtm

#endif // RTM_BENCH_COMMON_HH
