#include "runner.hh"

#include <cmath>

#include "util/logging.hh"

namespace rtm
{

std::vector<LlcOption>
standardLlcOptions()
{
    return {
        {"SRAM", MemTech::SRAM, Scheme::Baseline},
        {"STT-RAM", MemTech::STTRAM, Scheme::Baseline},
        {"RM-Ideal", MemTech::RacetrackIdeal, Scheme::Baseline},
        {"RM w/o p-ECC", MemTech::Racetrack, Scheme::Baseline},
        {"RM p-ECC-O", MemTech::Racetrack, Scheme::PeccO},
        {"RM p-ECC-S adaptive", MemTech::Racetrack,
         Scheme::PeccSAdaptive},
        {"RM p-ECC-S worst", MemTech::Racetrack, Scheme::PeccSWorst},
    };
}

std::vector<LlcOption>
racetrackSchemeOptions()
{
    return {
        {"Baseline", MemTech::Racetrack, Scheme::Baseline},
        {"p-ECC-O", MemTech::Racetrack, Scheme::PeccO},
        {"p-ECC-S adaptive", MemTech::Racetrack,
         Scheme::PeccSAdaptive},
        {"p-ECC-S worst", MemTech::Racetrack, Scheme::PeccSWorst},
    };
}

std::vector<LlcOption>
shiftCodeLlcOptions()
{
    // The shift-code family (lm-pos, del-ins-k) next to the paper's
    // best racetrack scheme as a reference point.
    return {
        {"RM p-ECC-S adaptive", MemTech::Racetrack,
         Scheme::PeccSAdaptive},
        {"RM lm-pos", MemTech::Racetrack, Scheme::LmPos},
        {"RM del-ins-k", MemTech::Racetrack, Scheme::DelIns},
    };
}

WorkloadProfile
scaledProfile(WorkloadProfile profile, uint64_t divisor)
{
    if (divisor == 0)
        rtm_panic("capacity divisor must be >= 1");
    profile.working_set_bytes =
        std::max<uint64_t>(profile.working_set_bytes / divisor,
                           kLineBytes * 16);
    return profile;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double acc = 0.0;
    for (double v : values) {
        if (v <= 0.0)
            rtm_panic("geomean needs positive values");
        acc += std::log(v);
    }
    return std::exp(acc / static_cast<double>(values.size()));
}

} // namespace rtm
