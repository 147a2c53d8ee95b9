/**
 * @file
 * Conventional bit-error ECC ("b-ECC") and its failure analysis
 * against position errors (paper Sec. 3.2).
 *
 * The paper argues that SECDED-class codes designed for transient
 * bit flips cannot protect racetrack memory from position errors:
 *
 *  - when a whole line's stripes slip together, the ports read a
 *    *different, internally consistent* codeword - the syndrome is
 *    clean and the wrong data passes silently;
 *  - when a single stripe slips, the misread bit differs from the
 *    correct one only half the time, so slips accumulate invisibly
 *    until two visible at once defeat the code;
 *  - even after detection, b-ECC cannot tell direction or distance,
 *    so recovery means refreshing the whole line - thousands of
 *    shifts during which a second position error is likely (~0.17
 *    for the paper's configuration), collapsing MTTF to ~20 ms.
 *
 * This module provides a real extended-Hamming SECDED codec for
 * 64-bit words plus the closed-form pieces of the paper's argument,
 * so the comparison bench can demonstrate each failure mode
 * functionally and quantitatively.
 */

#ifndef RTM_CODEC_BECC_HH
#define RTM_CODEC_BECC_HH

#include <cstdint>

#include "device/error_model.hh"
#include "device/organisation.hh"

namespace rtm
{

/** Outcome of a SECDED decode. */
struct BeccDecode
{
    enum class Status
    {
        Clean,          //!< syndrome zero: word accepted as-is
        Corrected,      //!< single-bit error corrected
        DetectedDouble, //!< double error detected, uncorrectable
    };

    Status status = Status::Clean;
    uint64_t data = 0;     //!< (possibly corrected) data word
    int flipped_bit = -1;  //!< corrected data-bit index, if any
};

/**
 * Extended Hamming SECDED over 64-bit words (the (72,64) code that
 * protects commodity cache lines).
 */
class HammingSecded
{
  public:
    HammingSecded();

    /** Number of check bits (7 Hamming + 1 overall parity). */
    static constexpr int kCheckBits = 8;

    /** Compute the 8 check bits for a data word. */
    uint8_t encode(uint64_t data) const;

    /** Decode a (data, check) pair. */
    BeccDecode decode(uint64_t data, uint8_t check) const;

    /**
     * Detection-only EDC probe: true iff the syndrome and overall
     * parity are both zero, i.e. decode() would return Clean with
     * the data unchanged. The cheap first tier of a two-tier read.
     */
    bool syndromeClean(uint64_t data, uint8_t check) const;

  private:
    /** Codeword position (1-based, parity positions skipped) of
     *  each data bit. */
    int data_pos_[64];

    /** Map codeword position -> data bit index (-1 for parity). */
    int pos_to_data_[128];

    uint8_t syndromeAndParity(uint64_t data, uint8_t check) const;
};

/** Closed-form pieces of the paper's Sec. 3.2 argument. */
struct BeccAnalysis
{
    /** Stripes a line is interleaved across. */
    int stripes = kStripesPerLine;

    /** Data domains per stripe. */
    int domains_per_stripe = kDomainsPerStripe;

    /** Probability a 1-step shift slips (per stripe). */
    double p_slip = 4.55e-5;

    /**
     * Shift operations needed to refresh (read out and reload) one
     * full line: every domain of every stripe must pass a port.
     */
    uint64_t refreshShiftOps() const;

    /**
     * Probability at least one new position error strikes during a
     * refresh (paper: ~0.17 for its configuration).
     */
    double refreshSecondErrorProbability() const;

    /**
     * MTTF of a b-ECC-protected racetrack line: errors are detected
     * (at best) but recovery itself fails with
     * refreshSecondErrorProbability(), so the failure rate is the
     * error rate times that probability (paper anchor: ~20 ms).
     *
     * @param accesses_per_second line access intensity
     */
    double mttfSeconds(double accesses_per_second) const;
};

} // namespace rtm

#endif // RTM_CODEC_BECC_HH
