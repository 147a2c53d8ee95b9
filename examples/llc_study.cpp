/**
 * @file
 * LLC technology study: run one workload through the full system
 * simulator for every LLC option and report the execution time /
 * energy / reliability trade the paper's evaluation explores.
 *
 *   ./llc_study [workload] [requests]
 *   ./llc_study trace:<path> [requests]
 *
 * e.g. ./llc_study canneal 120000
 *      ./llc_study trace:/tmp/app.trace 500000
 *
 * Trace files use the format of src/trace/trace_file.hh
 * ("<core> <addr> <R|W> [gap]", one request per line). A file that
 * does not parse, or names a core the hierarchy lacks, is refused
 * with its `file:line: message` and exit status 2.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "sim/runner.hh"
#include "trace/trace_file.hh"
#include "util/table.hh"
#include "util/units.hh"

using namespace rtm;

int
main(int argc, char **argv)
{
    std::string workload = argc > 1 ? argv[1] : "streamcluster";
    uint64_t requests =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 60000;
    const uint64_t divisor = 16;

    bool use_trace = workload.rfind("trace:", 0) == 0;
    std::vector<MemRequest> trace;
    WorkloadProfile profile;
    if (use_trace) {
        std::string path = workload.substr(6);
        TraceParseResult parsed =
            loadTraceFileChecked(path, HierarchyConfig{}.cores);
        if (!parsed.ok()) {
            const TraceDiagnostic &d = parsed.diagnostics.front();
            if (d.line > 0)
                std::fprintf(stderr, "%s:%d: %s\n", path.c_str(), d.line,
                             d.message.c_str());
            else
                std::fprintf(stderr, "%s\n", d.message.c_str());
            return 2;
        }
        if (parsed.requests.empty()) {
            std::fprintf(stderr, "%s: no requests\n", path.c_str());
            return 2;
        }
        trace = std::move(parsed.requests);
        std::printf("trace %s: %zu requests (looped to %llu)\n\n",
                    path.c_str(), trace.size(),
                    static_cast<unsigned long long>(requests));
        profile.name = path;
    } else {
        profile = scaledProfile(parsecProfile(workload), divisor);
        std::printf("workload %s: working set %.1f MB (scaled "
                    "/%llu), %s, %.0f%% writes\n\n",
                    profile.name.c_str(),
                    static_cast<double>(parsecProfile(workload)
                                            .working_set_bytes) /
                        (1 << 20),
                    static_cast<unsigned long long>(divisor),
                    profile.capacity_sensitive
                        ? "capacity sensitive"
                        : "capacity insensitive",
                    100.0 * profile.write_ratio);
    }

    PaperCalibratedErrorModel model;
    TextTable t({"LLC option", "exec cycles", "IPC", "LLC miss %",
                 "total energy (mJ)", "SDC MTTF", "DUE MTTF"});
    for (const auto &opt : standardLlcOptions()) {
        SimConfig cfg;
        cfg.hierarchy.llc_tech = opt.tech;
        cfg.hierarchy.scheme = opt.scheme;
        cfg.hierarchy.capacity_divisor = divisor;
        cfg.mem_requests = requests;
        cfg.warmup_requests = requests / 10;
        SimResult r =
            use_trace
                ? simulateTrace(profile.name, trace, cfg, &model)
                : simulate(profile, cfg, &model);

        char human[64];
        char sdc[96], due[96];
        formatDuration(r.sdc_mttf, human, sizeof(human));
        std::snprintf(sdc, sizeof(sdc), "%s", human);
        formatDuration(r.due_mttf, human, sizeof(human));
        std::snprintf(due, sizeof(due), "%s", human);
        double miss_pct =
            r.llc_accesses
                ? 100.0 * static_cast<double>(r.llc_misses) /
                      static_cast<double>(r.llc_accesses)
                : 0.0;
        t.addRow({opt.label,
                  TextTable::integer(
                      static_cast<long long>(r.cycles)),
                  TextTable::fixed(r.ipc(), 2),
                  TextTable::fixed(miss_pct, 1),
                  TextTable::fixed(r.totalEnergy() * 1e3, 2), sdc,
                  due});
    }
    t.print(stdout);

    std::printf("\nreading guide: the racetrack LLC should win on "
                "execution time for capacity-sensitive workloads "
                "and on energy everywhere (leakage), but only the "
                "protected schemes deliver usable MTTFs.\n");
    return 0;
}
