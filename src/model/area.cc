#include "area.hh"

#include <algorithm>

#include "util/logging.hh"

namespace rtm
{

namespace
{

// Technology constants of the stripe area model, in F^2.
constexpr double kF2PerDomain = 6.8;          //!< stripe footprint per domain
constexpr double kF2PerReadPort = 20.0;       //!< transistor, read-only
constexpr double kF2PerRwPort = 40.0;         //!< transistor pair + refs
constexpr double kF2PerWritePort = 20.0;      //!< end write driver (p-ECC-O)
constexpr double kF2PeripheralPerPort = 10.0; //!< sense amp / driver
constexpr double kF2PeripheralFixed = 40.0;   //!< shift driver + control

} // anonymous namespace

double
cellSizeF2(MemTech tech)
{
    switch (tech) {
      case MemTech::SRAM:
        return 125.0; // 6T cell incl. wiring
      case MemTech::STTRAM:
        return 15.6; // 1T1MTJ
      case MemTech::Racetrack:
      case MemTech::RacetrackIdeal:
        return 3.9; // domains sharing 8 ports per 64-bit stripe
    }
    return 0.0;
}

uint64_t
isoAreaCapacityBytes(MemTech tech, uint64_t sram_capacity_bytes)
{
    double ratio = cellSizeF2(MemTech::SRAM) / cellSizeF2(tech);
    return static_cast<uint64_t>(
        static_cast<double>(sram_capacity_bytes) * ratio + 0.5);
}

double
AreaModel::stripeArea(int domains, int read_ports, int rw_ports,
                      int write_ports) const
{
    if (domains <= 0)
        rtm_panic("stripeArea: need at least one domain");
    double stripe = kF2PerDomain * static_cast<double>(domains);
    double transistors =
        kF2PerReadPort * static_cast<double>(read_ports) +
        kF2PerRwPort * static_cast<double>(rw_ports) +
        kF2PerWritePort * static_cast<double>(write_ports);
    int total_ports = read_ports + rw_ports + write_ports;
    double peripheral =
        kF2PeripheralFixed +
        kF2PeripheralPerPort * static_cast<double>(total_ports);
    // The stripe is stacked on the transistors: footprint is the
    // larger of the two layers; peripheral circuitry always adds.
    return std::max(stripe, transistors) + peripheral;
}

double
AreaModel::areaPerDataBit(const PeccConfig &config) const
{
    PeccLayout lay = computeLayout(config);
    // Baseline inventory: data + (Lseg - 1) overhead domains and one
    // read/write port per segment.
    int domains = config.dataDomains() + (config.seg_len - 1) +
                  lay.extraDomains();
    int rw_ports = config.num_segments;
    int read_ports = lay.extraReadPorts();
    int write_ports = lay.extraWritePorts();
    double area = stripeArea(domains, read_ports, rw_ports,
                             write_ports);
    return area / static_cast<double>(config.dataDomains());
}

double
AreaModel::areaPerBitWithPorts(int data_bits, int added_read_ports,
                               int rw_ports) const
{
    // Fig. 7 uses a bare 64-bit stripe: data domains plus overhead
    // equal to one segment's worth per the default mapping.
    int domains = data_bits + data_bits / 8;
    double area = stripeArea(domains, added_read_ports, rw_ports);
    return area / static_cast<double>(data_bits);
}

} // namespace rtm
