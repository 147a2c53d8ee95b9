/**
 * @file
 * Cyclic position codes for p-ECC (paper Sec. 4.2).
 *
 * The paper's SED pattern '10101' and the SECDED two-bit cyclic code
 * ('11' -> '10' -> '00' -> '01') generalise to binary de Bruijn
 * sequences B(2, w): a window of w consecutive code bits read by w
 * adjacent ports identifies the stripe's cumulative shift offset
 * modulo 2^w. With w = m + 1 the period 2^(m+1) >= 2m + 2 is exactly
 * enough to correct +/-m step errors and detect +/-(m+1) (the two
 * (m+1)-step errors alias to the same residue, so they are detectable
 * but uncorrectable - precisely the paper's SECDED behaviour at m=1).
 */

#ifndef RTM_CODEC_CYCLIC_HH
#define RTM_CODEC_CYCLIC_HH

#include <cstdint>
#include <vector>

#include "device/stripe.hh"

namespace rtm
{

/** Outcome of a p-ECC window check. */
struct DecodeResult
{
    /** Window bits were all defined and decodable. */
    bool valid = false;

    /** A position error was detected. */
    bool detected = false;

    /** The detected error can be corrected by a counter-shift. */
    bool correctable = false;

    /** Inferred signed step error (0 when no error detected). */
    int step_error = 0;

    /** No error detected and the window was readable. */
    bool ok() const { return valid && !detected; }
};

/**
 * Binary de Bruijn sequence B(2, w) with window-to-phase decoding.
 */
class CyclicCode
{
  public:
    /**
     * @param window_bits w = number of code read ports (m + 1);
     *        must be in [1, 16].
     */
    explicit CyclicCode(int window_bits);

    /** Window size w. */
    int window() const { return window_; }

    /** Sequence period T = 2^w. */
    int period() const { return period_; }

    /** Code bit stored at (possibly negative) code index. */
    Bit bitAt(int64_t index) const;

    /**
     * Phase of a window of w bits (the code index of its first bit,
     * modulo the period). Returns -1 if any bit is undefined or the
     * window length mismatches. Off the hot path: the stripe packs
     * its window straight into an integer (phaseOfValue).
     */
    int phaseOf(const std::vector<Bit> &window_bits) const;

    /**
     * Phase of a window packed first-bit-most-significant into an
     * integer in [0, period).
     */
    int phaseOfValue(uint32_t value) const
    {
        return phase_lookup_[value];
    }

    /**
     * Decode an observed window phase against the expected phase.
     *
     * @param observed phase read from the ports (or -1 if unreadable)
     * @param expected phase implied by the believed offset
     * @param correct_strength m: largest |error| to correct
     */
    DecodeResult decode(int observed, int expected,
                        int correct_strength) const;

  private:
    int window_;
    int period_;
    std::vector<uint8_t> sequence_;   //!< B(2, w), length = period
    std::vector<int> phase_lookup_;   //!< window value -> phase
};

} // namespace rtm

#endif // RTM_CODEC_CYCLIC_HH
