/**
 * @file
 * Combined protection: p-ECC for position errors plus conventional
 * SECDED for bit errors on the same line (paper Sec. 1/4.2.3: the
 * two error classes are orthogonal, and "error detection of p-ECC
 * may be processed at the same time with conventional ECC").
 *
 * A ProtectedLine stores a 64-bit data word bit-interleaved across
 * 72 p-ECC-protected stripes (64 data + 8 SECDED check stripes),
 * the paper's LLC organisation scaled down to one word per stripe
 * group position. The stripes move in lockstep behind one shift
 * controller; each access:
 *
 *   1. shifts to the word's segment-local index (p-ECC checks and
 *      corrects the position on every stripe);
 *   2. reads the 72 bit columns and runs the SECDED decode (b-ECC
 *      corrects any single flipped magnetisation).
 *
 * Fault injection covers both classes: position errors through the
 * stripes' error model, bit flips through flipStoredBit().
 */

#ifndef RTM_CODEC_COMBINED_HH
#define RTM_CODEC_COMBINED_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "codec/becc.hh"
#include "codec/protected_stripe.hh"

namespace rtm
{

/** Outcome of a combined-protection read. */
struct LineReadResult
{
    uint64_t data = 0;          //!< decoded word
    bool position_due = false;  //!< p-ECC unrecoverable on a stripe
    bool position_corrected = false; //!< >=1 stripe counter-shifted
    BeccDecode::Status bit_status = BeccDecode::Status::Clean;

    /** The read produced trustworthy data. */
    bool ok() const
    {
        return !position_due &&
               bit_status != BeccDecode::Status::DetectedDouble;
    }
};

/**
 * One 64-bit word column protected by both code families.
 */
class ProtectedLine
{
  public:
    /**
     * @param config p-ECC configuration of each stripe (one word
     *        bit per segment-local index)
     * @param model  position-error model (shared by all stripes)
     * @param rng    seed stream; each stripe forks its own
     */
    ProtectedLine(const PeccConfig &config,
                  const PositionErrorModel *model, Rng rng);

    /** Number of stripes (64 data + 8 check). */
    static constexpr int kStripes = 64 + HammingSecded::kCheckBits;

    /** Initialise code domains on every stripe. */
    void initialize();

    /**
     * Write a word at segment-local index `idx` (one bit per
     * stripe, all stripes aligned to idx first).
     */
    void write(int idx, uint64_t data);

    /**
     * Read the word at segment-local index `idx`. When the config's
     * two_tier flag is set, a clean EDC probe (p-ECC window phases +
     * SECDED syndrome, identical detection coverage to the full
     * decode) accepts the word without running the correction logic;
     * the decode outcome is the same either way, only the tier
     * counters differ.
     */
    LineReadResult read(int idx);

    /** Flip one stored data bit in place (bit-error injection). */
    void flipStoredBit(int idx, int bit);

    /** Total p-ECC detections across all stripes so far. */
    uint64_t positionDetections() const { return detections_; }

    /** Total b-ECC single-bit corrections so far. */
    uint64_t bitCorrections() const { return bit_corrections_; }

    /** Two-tier reads resolved by the cheap EDC probe alone. */
    uint64_t edcFastReads() const { return edc_fast_reads_; }

    /** Two-tier reads escalated to the full ECC decode. */
    uint64_t fullDecodes() const { return full_decodes_; }

  private:
    PeccConfig config_;
    std::vector<std::unique_ptr<ProtectedStripe>> stripes_;
    HammingSecded becc_;
    uint64_t detections_ = 0;
    uint64_t bit_corrections_ = 0;
    uint64_t edc_fast_reads_ = 0;
    uint64_t full_decodes_ = 0;

    /** Align every stripe to idx; returns false on any DUE. */
    bool seekAll(int idx, LineReadResult *result);
};

} // namespace rtm

#endif // RTM_CODEC_COMBINED_HH
