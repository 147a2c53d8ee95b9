/**
 * @file
 * Racetrack-memory area model (paper Sec. 4.2.3, Fig. 7 / Fig. 13).
 *
 * A stripe is stacked above its access transistors, so total footprint
 * is the larger of the domain area and the transistor area, plus a
 * small per-port peripheral term (sense amps, word-line drivers) that
 * is never hidden under the stripe. With few ports the stripe
 * dominates and an extra read port costs little; past the knee every
 * port pays its full transistor footprint - reproducing the paper's
 * observation and the shape of Fig. 7.
 *
 * Constants are calibrated to the circuit-level model the paper
 * cites: ~6.8 F^2 per domain of stripe footprint (including wire
 * pitch), 20 F^2 of transistor per read-only port (one access
 * transistor), 40 F^2 per read/write port (one extra transistor plus
 * two pinned reference domains), 20 F^2 per end write port (p-ECC-O),
 * and 10 F^2 of peripheral per port plus 40 F^2 fixed (shift driver
 * and control).
 */

#ifndef RTM_MODEL_AREA_HH
#define RTM_MODEL_AREA_HH

#include <cstdint>

#include "codec/layout.hh"
#include "model/tech.hh"

namespace rtm
{

/**
 * Effective cell size in F^2 per bit for the iso-area comparison of
 * Table 4: the paper keeps LLC area constant across technologies,
 * which with these cell sizes yields the 4 / 32 / 128 MB ladder
 * (1 : 8 : 32). The racetrack number is the *effective* density
 * including shared access transistors - raw domain density is
 * higher still (the paper quotes up to 10x STT-RAM).
 */
double cellSizeF2(MemTech tech);

/**
 * Capacity at iso-area with an SRAM baseline of
 * `sram_capacity_bytes` (Table 4 uses 4 MB).
 */
uint64_t isoAreaCapacityBytes(MemTech tech,
                              uint64_t sram_capacity_bytes);

/**
 * Stripe area evaluator over the technology constants in area.cc.
 */
class AreaModel
{
  public:
    /**
     * Total stripe footprint in F^2 for an explicit inventory.
     *
     * @param domains      total domains on the stripe (data + code +
     *                     overhead + guards)
     * @param read_ports   read-only ports
     * @param rw_ports     read/write ports
     * @param write_ports  write-only end ports (p-ECC-O)
     */
    double stripeArea(int domains, int read_ports, int rw_ports,
                      int write_ports = 0) const;

    /**
     * Average area per *data* bit (F^2/b) for a protected stripe
     * configuration - the Fig. 13 metric. Includes the protection's
     * extra domains and ports from the layout's paper accounting.
     */
    double areaPerDataBit(const PeccConfig &config) const;

    /**
     * Fig. 7 sweep point: a `data_bits`-domain stripe with the given
     * port counts (before any p-ECC), reporting F^2 per data bit.
     */
    double areaPerBitWithPorts(int data_bits, int added_read_ports,
                               int rw_ports) const;
};

} // namespace rtm

#endif // RTM_MODEL_AREA_HH
