/**
 * @file
 * Interleaved Varshamov-Tenengolts deletion/insertion code for
 * racetrack tracks (after Sima & Bruck, "Correcting k Deletions and
 * Insertions in Racetrack Memory").
 *
 * A position error during a streaming readout is literally a burst of
 * deletions (over-shift: bits skipped under the head) or insertions
 * (under-shift: bits re-read) in the observed bit stream. Instead of
 * a dedicated position-code region, this codec protects the data
 * tracks themselves:
 *
 *  - each track carries k interleaved VT codes (interleave class c =
 *    positions congruent to c mod k). A VT code with syndrome
 *    sum (i+1)*x_i = 0 (mod Lc+1) corrects one deletion or insertion,
 *    and a burst of <= k consecutive events touches each class at
 *    most once — the classic burst-interleaving argument;
 *  - the code is systematic: ceil(log2(Lc+1)) check bits per class
 *    sit at the class-local positions of weight 2^j, so the syndrome
 *    deficit of the data bits can be written directly;
 *  - the multiple heads of the construction are the per-segment data
 *    ports the stripe already has: every head streams its own track
 *    and over-reads into its left neighbour, so each track tail is
 *    observed twice (cross-head verification for free);
 *  - the net offset of a readout is recovered *exactly* from the
 *    run of undefined (X) sentinel domains head 0 reads after its
 *    track is exhausted: a readout of L + E reads ends with E + delta
 *    X reads, where delta is the net position error.
 *
 * decode() is a pure function of the observed streams so exhaustive
 * tests can drive it over every codeword x error pattern without a
 * stripe; ProtectedStripe produces the same streams by real shifting
 * (with fault injection) and calls the same function.
 *
 * Correction guarantee: at k = 1 every single in-band burst decodes
 * to the exact data and offset (the lone interleave class is a true
 * VT code, whose deletion balls are disjoint across codewords). At
 * k >= 2 a burst can be genuinely ambiguous for some codewords —
 * several burst positions permute the streams into distinct valid
 * codewords, typically inside runs of equal bits whose class
 * syndromes collide — and is then reported detected-uncorrectable,
 * never resolved by guessing. Likewise a readout that suffered two
 * or more separate bursts is outside the single-burst model: it is
 * almost always rejected (DUE, retried by ProtectedStripe), and the
 * residual aliasing channel is the code's analogue of a multi-error
 * SDC under SECDED.
 */

#ifndef RTM_CODEC_DEL_INS_HH
#define RTM_CODEC_DEL_INS_HH

#include <vector>

#include "codec/cyclic.hh" // DecodeResult
#include "device/stripe.hh"

namespace rtm
{

/** Interleaved-VT codec over `tracks` tracks of `track_len` bits. */
class DelInsCode
{
  public:
    /**
     * @param tracks    heads/tracks decoded together (>= 1)
     * @param track_len L: domains per track
     * @param k         burst strength: deletions/insertions corrected
     *                  per readout (1 <= k < track_len)
     */
    DelInsCode(int tracks, int track_len, int k);

    int tracks() const { return tracks_; }
    int trackLen() const { return len_; }
    int strength() const { return k_; }

    /**
     * Flush reads E past the track end. The trailing-X run on head 0
     * has length E + delta for any net offset delta in [-E, E], so
     * E = 2k + 2 pins every |delta| <= k exactly and still
     * distinguishes the first beyond-radius magnitudes for detection.
     */
    int flushReads() const { return 2 * k_ + 2; }

    /** Reads per protected readout: N = L + E. */
    int readoutReads() const { return len_ + flushReads(); }

    /** VT check bits embedded in each track. */
    int checkBitsPerTrack() const { return checks_per_track_; }

    /**
     * The VT check bits per track of a (track_len, k) code, without
     * building it: a geometry with track_len - checkBits(...) < 1
     * leaves no data bits and the constructor aborts on it.
     */
    static int checkBits(int track_len, int k);

    /** Data bits per track: L minus the check bits. */
    int dataBitsPerTrack() const { return len_ - checks_per_track_; }

    /** Data bits across all tracks. */
    int payloadBits() const { return tracks_ * dataBitsPerTrack(); }

    /** True if track position `pos` holds a check bit. */
    bool isCheckPosition(int pos) const;

    /** Encode one track: dataBitsPerTrack() bits -> L-bit codeword. */
    std::vector<Bit> encodeTrack(const std::vector<Bit> &data) const;

    /** Encode a payloadBits() image into per-track codewords. */
    std::vector<std::vector<Bit>>
    encode(const std::vector<Bit> &payload) const;

    /** Data bits of one L-bit track codeword, in position order. */
    std::vector<Bit>
    extractTrackData(const std::vector<Bit> &track) const;

    /** Payload of a full per-track codeword set. */
    std::vector<Bit>
    extractPayload(const std::vector<std::vector<Bit>> &tracks) const;

    /** extractPayload into `out`, reusing its storage. */
    void extractPayload(const std::vector<std::vector<Bit>> &tracks,
                        std::vector<Bit> *out) const;

    /** True if every interleave class of `track` has syndrome 0. */
    bool trackSyndromesOk(const std::vector<Bit> &track) const;

    /** Outcome of decoding one readout. */
    struct Result
    {
        /** detected/correctable/step_error follow the DecodeResult
         *  conventions; step_error is the inferred net offset. */
        DecodeResult status;

        /** Reconstructed track codewords (valid when status.ok() or
         *  status.correctable). */
        std::vector<std::vector<Bit>> tracks;
    };

    /**
     * Decode the observed readout streams (tracks() streams of
     * readoutReads() bits each, X included). Either reconstructs the
     * exact pre-error track contents and the net offset, or reports
     * a detected-uncorrectable error; by construction there is no
     * silent path — every accepted reconstruction re-predicts the
     * observed streams bit for bit and satisfies all VT syndromes,
     * and ambiguity across surviving candidates is reported as
     * uncorrectable rather than resolved by guessing.
     */
    Result decode(
        const std::vector<std::vector<Bit>> &streams) const;

    /**
     * decode(streams) into `res`, reusing the storage of res->tracks
     * and of `scratch` (a second candidate buffer) across calls.
     * res->tracks is unspecified unless the status is ok or
     * correctable.
     */
    void decode(const std::vector<std::vector<Bit>> &streams,
                Result *res,
                std::vector<std::vector<Bit>> *scratch) const;

    /**
     * Reference readout: the streams a fault-free readout of
     * `tracks` would observe if a single net offset burst of
     * `error` steps took effect from read index `burst_time` on
     * (burst_time = 0 models a latent pre-readout offset). Pure
     * function shared by the decoder's candidate verification and
     * the exhaustive tests.
     */
    std::vector<std::vector<Bit>>
    referenceStreams(const std::vector<std::vector<Bit>> &tracks,
                     int burst_time, int error) const;

  private:
    struct ClassInfo
    {
        int length = 0;              //!< Lc: positions in the class
        std::vector<int> check_local; //!< class-local check indices
    };

    int tracks_;
    int len_;
    int k_;
    int checks_per_track_ = 0;
    std::vector<ClassInfo> classes_;      //!< one per residue mod k
    std::vector<uint8_t> is_check_;       //!< per track position

    /** Append the data bits of one L-bit track to `out`. */
    void appendTrackData(const std::vector<Bit> &track,
                         std::vector<Bit> *out) const;

    /** Predicted read of head `s` at offset `o` from track array. */
    Bit predictedRead(const std::vector<std::vector<Bit>> &tracks,
                      int head, int offset) const;

    /** Try one (burst_time, delta) candidate, reconstructing into
     *  `out` (overwritten either way); true on success. */
    bool tryCandidate(const std::vector<std::vector<Bit>> &streams,
                      int burst_time, int delta,
                      std::vector<std::vector<Bit>> *out) const;
};

} // namespace rtm

#endif // RTM_CODEC_DEL_INS_HH
