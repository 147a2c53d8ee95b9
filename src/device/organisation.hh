/**
 * @file
 * The paper's Table 4 system organisation, declared once. The
 * hierarchy, the racetrack bank and the stripe, planner and code
 * configurations all read these constants, so every racetrack option
 * shares one geometry by construction. Per-level capacities and
 * timings live in model/tech.hh.
 */

#ifndef RTM_DEVICE_ORGANISATION_HH
#define RTM_DEVICE_ORGANISATION_HH

namespace rtm
{

constexpr int kLineBytes = 64; //!< line size at every level, bytes
constexpr int kL1Ways = 2;     //!< L1 data cache associativity
constexpr int kL2Ways = 4;     //!< L2 associativity
constexpr int kLlcWays = 16;   //!< LLC associativity

constexpr int kSegLen = 8;         //!< Lseg: domains under one port
/** Longest Lseg any program plans for (Figs. 12 and 15). */
constexpr int kMaxSegLen = 64;
constexpr int kPortsPerStripe = 8; //!< access ports per stripe
/** Data domains per stripe: the line frames of one stripe group. */
constexpr int kDomainsPerStripe = kPortsPerStripe * kSegLen;
/** Stripes a line is bit-interleaved across, one per bit. */
constexpr int kStripesPerLine = kLineBytes * 8;

/** Peak LLC access intensity, accesses/s (Sec. 5.3). */
constexpr double kPeakLlcOpsPerSecond = 83e6;

} // namespace rtm

#endif // RTM_DEVICE_ORGANISATION_HH
