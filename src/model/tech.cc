#include "tech.hh"

#include "util/logging.hh"

namespace rtm
{

const char *
memTechName(MemTech tech)
{
    switch (tech) {
      case MemTech::SRAM: return "SRAM";
      case MemTech::STTRAM: return "STT-RAM";
      case MemTech::Racetrack: return "RM";
      case MemTech::RacetrackIdeal: return "RM-Ideal";
    }
    return "?";
}

TechParams
sramL3()
{
    TechParams p;
    p.tech = MemTech::SRAM;
    p.capacity_bytes = 4ull << 20;
    p.read_latency = 24;
    p.write_latency = 22;
    p.read_energy = nJ(0.802);
    p.write_energy = nJ(0.761);
    p.leakage_watts = mW(2673.5);
    return p;
}

TechParams
sttramL3()
{
    TechParams p;
    p.tech = MemTech::STTRAM;
    p.capacity_bytes = 32ull << 20;
    p.read_latency = 27;
    p.write_latency = 41;
    p.read_energy = nJ(1.056);
    p.write_energy = nJ(2.093);
    p.leakage_watts = mW(862.2);
    return p;
}

TechParams
racetrackL3()
{
    TechParams p;
    p.tech = MemTech::Racetrack;
    p.capacity_bytes = 128ull << 20;
    p.read_latency = 24;
    p.write_latency = 24;
    p.shift_latency_per_step = 4;
    p.read_energy = nJ(0.956);
    p.write_energy = nJ(0.952);
    p.shift_energy_per_step = nJ(1.331);
    p.leakage_watts = mW(948.4);
    return p;
}

TechParams
racetrackIdealL3()
{
    TechParams p = racetrackL3();
    p.tech = MemTech::RacetrackIdeal;
    p.shift_latency_per_step = 0;
    p.shift_energy_per_step = 0.0;
    return p;
}

TechParams
l3For(MemTech tech)
{
    switch (tech) {
      case MemTech::SRAM: return sramL3();
      case MemTech::STTRAM: return sttramL3();
      case MemTech::Racetrack: return racetrackL3();
      case MemTech::RacetrackIdeal: return racetrackIdealL3();
    }
    rtm_panic("unknown tech");
}

TechParams
l1Params()
{
    TechParams p;
    p.tech = MemTech::SRAM;
    p.capacity_bytes = 32ull << 10;
    p.read_latency = 1;
    p.write_latency = 1;
    p.read_energy = nJ(0.074);
    p.write_energy = nJ(0.074);
    p.leakage_watts = mW(23.4);
    return p;
}

TechParams
l2Params()
{
    TechParams p;
    p.tech = MemTech::SRAM;
    p.capacity_bytes = 1ull << 20;
    p.read_latency = 7;
    p.write_latency = 7;
    p.read_energy = nJ(0.407);
    p.write_energy = nJ(0.386);
    p.leakage_watts = mW(681.5);
    return p;
}

DramParams
dramParams()
{
    return DramParams{};
}

} // namespace rtm
