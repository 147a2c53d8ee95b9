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

const char *
schemeName(Scheme scheme)
{
    switch (scheme) {
      case Scheme::Baseline: return "Baseline";
      case Scheme::Sts: return "STS";
      case Scheme::SedPecc: return "SED p-ECC";
      case Scheme::SecdedPecc: return "SECDED p-ECC";
      case Scheme::PeccO: return "SECDED p-ECC-O";
      case Scheme::PeccSWorst: return "p-ECC-S worst";
      case Scheme::PeccSAdaptive: return "p-ECC-S adaptive";
      case Scheme::LmPos: return "lm-pos";
      case Scheme::DelIns: return "del-ins-k";
    }
    return "?";
}

int
schemeCorrectionStrength(Scheme scheme)
{
    switch (scheme) {
      case Scheme::Baseline:
      case Scheme::Sts:
        return -1; // no code at all
      case Scheme::SedPecc:
        return 0;
      case Scheme::SecdedPecc:
      case Scheme::PeccO:
      case Scheme::PeccSWorst:
      case Scheme::PeccSAdaptive:
        return 1;
      case Scheme::LmPos:
        return 2; // w = 3 window, T = 8 >= 2m + 2
      case Scheme::DelIns:
        return 2; // k = 2 deletions/insertions per readout
    }
    return -1;
}

ProtectionOverheads
overheadsFor(Scheme scheme)
{
    // Paper Table 5 (45 nm synthesis).
    ProtectionOverheads o;
    switch (scheme) {
      case Scheme::Baseline:
        break;
      case Scheme::Sts:
        o.detect_time = ns(0.82);
        o.detect_energy = pJ(1.31);
        o.correct_time = ns(0.82);
        o.correct_energy = pJ(1.31);
        o.controller_area_um2 = 1.94;
        break;
      case Scheme::SedPecc:
      case Scheme::SecdedPecc:
        o.detect_time = ns(0.34);
        o.detect_energy = pJ(3.73);
        o.correct_time = ns(1.34);
        o.correct_energy = pJ(6.16);
        o.cell_area_overhead = 0.176;
        o.controller_area_um2 = 54.0;
        break;
      case Scheme::PeccO:
        o.detect_time = ns(0.34);
        o.detect_energy = pJ(3.74);
        o.correct_time = ns(1.34);
        o.correct_energy = pJ(9.90);
        o.cell_area_overhead = 0.157;
        o.controller_area_um2 = 54.0;
        break;
      case Scheme::PeccSWorst:
        o.detect_time = ns(0.38);
        o.detect_energy = pJ(3.75);
        o.correct_time = ns(1.35);
        o.correct_energy = pJ(6.17);
        o.cell_area_overhead = 0.176;
        o.controller_area_um2 = 54.3;
        break;
      case Scheme::PeccSAdaptive:
        o.detect_time = ns(0.61);
        o.detect_energy = pJ(3.86);
        o.correct_time = ns(1.37);
        o.correct_energy = pJ(6.19);
        o.cell_area_overhead = 0.176;
        o.controller_area_um2 = 109.4;
        break;
      case Scheme::LmPos:
        // Not in the paper's Table 5: estimated by scaling the
        // SECDED row for the one extra window port / comparator
        // stage (w = 3 vs 2) of the limited-magnitude code.
        o.detect_time = ns(0.38);
        o.detect_energy = pJ(4.10);
        o.correct_time = ns(1.34);
        o.correct_energy = pJ(6.80);
        o.cell_area_overhead = 0.185;
        o.controller_area_um2 = 61.0;
        break;
      case Scheme::DelIns:
        // Estimate: the VT-syndrome decoder is combinational per
        // class, but detection is folded into the streaming readout;
        // storage overhead is the per-track check bits (~log2 L per
        // interleave class) instead of a dedicated code region.
        o.detect_time = ns(0.34);
        o.detect_energy = pJ(4.40);
        o.correct_time = ns(1.50);
        o.correct_energy = pJ(8.20);
        o.cell_area_overhead = 0.130;
        o.controller_area_um2 = 88.0;
        break;
    }
    return o;
}

} // namespace rtm
