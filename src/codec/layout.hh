/**
 * @file
 * Geometry of a protected racetrack stripe (paper Sec. 4.2).
 *
 * The layout maps a protection configuration (segment shape and p-ECC
 * strength/variant) onto concrete wire slots: where data domains sit
 * at the home position, where the access ports are, where code bits
 * live, and how many domains/ports the protection adds over the
 * unprotected baseline. All paper-facing overhead numbers (extra
 * domains, extra read ports, storage overhead fraction) come from
 * here; the functional wire length used by the simulator is a
 * conservative superset that additionally reserves explicit slots for
 * every legal excursion, so fault injection can never index off the
 * model.
 *
 * Conventions: the tape shifts right by a cumulative offset
 * o in [0, seg_len - 1]; data port s sits over the right-most domain
 * of segment s at home (o = 0), so segment-local index r is read at
 * offset o = seg_len - 1 - r.
 */

#ifndef RTM_CODEC_LAYOUT_HH
#define RTM_CODEC_LAYOUT_HH

#include <string>
#include <vector>

#include "device/organisation.hh"
#include "device/stripe.hh"
#include "model/tech.hh"
#include "util/fields.hh"
#include "util/logging.hh"

namespace rtm
{

/**
 * Entry-margin depth factor of the OverheadRegion functional layout:
 * margin = factor * (m + 1) slots per wire end. Sized so undefined or
 * stale domains entering during a correction episode (initial error
 * plus kMaxCorrectionRounds erroneous counter-shifts) can never reach
 * the code window slots.
 */
constexpr int kOverheadScrubDepthFactor = 8;

/** Bounded retries of the correction loop before declaring DUE. */
constexpr int kMaxCorrectionRounds = 4;

/** Configuration of one protected stripe. */
struct PeccConfig
{
    int num_segments = kPortsPerStripe; //!< ports sharing the stripe
    int seg_len = kSegLen; //!< domains per segment (Lseg)
    int correct = 1;       //!< m: step errors corrected (0 = SED);
                           //!< burst strength k for DelIns
    PeccVariant variant = PeccVariant::Standard;

    /**
     * Window-port override for limited-magnitude position codes:
     * 0 keeps the paper's w = m + 1; a wider window (needs
     * 2m + 2 <= 2^w) decouples the correction radius from the code
     * period, the Chee et al. construction.
     */
    int window_ports = 0;

    /**
     * Frames sharing one codeword (Ramulator2_ECC-style large
     * codewords). 1 is the paper's per-frame code and changes
     * nothing; 2/4/8 pool the check bits of that many consecutive
     * frames into one shared redundancy region, buying
     * log2(codeword_frames) extra correction strength at sub-linear
     * per-frame overhead — paid for with a redundancy access on
     * every codeword update (accounted in RmBank).
     */
    int codeword_frames = 1;

    /**
     * Two-tier read discipline: a cheap EDC probe first (detection
     * only, same coverage as the full decode), escalating to the
     * full ECC decode + redundancy fetch only when the probe flags
     * an error. Never changes decode outcomes — only what latency /
     * energy / bandwidth a clean read is charged.
     */
    bool two_tier = false;

    /** Total data domains on the stripe. */
    int dataDomains() const { return num_segments * seg_len; }

    /** Largest legal single-shift distance. */
    int maxShiftDistance() const
    {
        return variant == PeccVariant::OverheadRegion ? 1
                                                      : seg_len - 1;
    }

    /** Detection reach: +/-(m+1) errors are detected. */
    int detect() const { return correct + 1; }

    /** Code window width = number of adjacent code read ports. */
    int window() const
    {
        return window_ports > 0 ? window_ports : correct + 1;
    }

    /**
     * Correction strength of the pooled codeword: m + log2(F) for F
     * frames per codeword, capped at Lseg - 1 (the largest offset a
     * per-stripe position code can represent). F = 1 is exactly m.
     */
    int effectiveCorrect() const;

    bool operator==(const PeccConfig &) const = default;
};

/** Serialised keys of a stripe configuration (util/fields.hh). */
template <class V, FieldsOf<PeccConfig>... S>
void
forEachField(V &&v, S &...s)
{
    v("segments", s.num_segments...);
    v("lseg", s.seg_len...);
    v("correct", s.correct...);
    v("variant", s.variant...);
}

/**
 * Stripe configuration of `scheme` on `num_segments` segments of
 * `seg_len` domains: its variant, strength and window from the scheme
 * table (model/tech.hh). A code-less scheme keeps the default
 * strength, which nothing reads on an unprotected stripe.
 */
PeccConfig peccConfigFor(Scheme scheme, int num_segments, int seg_len);

/**
 * Non-fatal geometry diagnosis for spec-driven configuration: empty
 * string when `config` (against a bank group of `frames_per_group`
 * frames; pass 0 to skip the group checks) is realisable, otherwise
 * one human-readable reason. computeLayout aborts on exactly these
 * checks (group ones aside), and they include every geometry the
 * DelInsCode constructor rejects, so spec parsing can report a
 * dotted-path error and exit 2 instead of aborting in a worker.
 */
std::string protectionGeometryError(const PeccConfig &config,
                                    int frames_per_group);

/** Fully resolved stripe geometry. */
struct PeccLayout
{
    PeccConfig config;

    int wire_len = 0;        //!< functional wire slots
    int data_base = 0;       //!< wire slot of data[0] at home
    int code_base = 0;       //!< wire slot of code[0] at home
                             //!< (Standard variant only)
    int code_len = 0;        //!< dedicated code domains (Standard)
    int left_code_len = 0;   //!< p-ECC-O left code region length

    /** Wire slots of the per-segment read/write data ports. */
    std::vector<int> data_port_slots;

    /** Wire slots of the code-window read ports (left-to-right).
     *  For p-ECC-O these are the right-end window; the left-end
     *  window is in left_window_slots. */
    std::vector<int> window_slots;

    /** p-ECC-O only: left-end code window. */
    std::vector<int> left_window_slots;

    /** True if the variant maintains code via end write ports. */
    bool has_end_write_ports = false;

    // ---- paper-facing overhead accounting ---------------------------

    /** Extra domains versus the unprotected baseline stripe. */
    int extraDomains() const;

    /** Extra read ports versus the baseline. */
    int extraReadPorts() const;

    /** Extra write ports versus the baseline. */
    int extraWritePorts() const;

    /** Storage overhead: extra domains / data domains. */
    double storageOverhead() const;

    // ---- multi-frame codeword accounting -----------------------------

    /**
     * Extra domains for one whole codeword of
     * config.codeword_frames frames: one shared redundancy region
     * sized at the pooled strength effectiveCorrect() instead of
     * codeword_frames per-frame regions at strength m.
     */
    int codewordExtraDomains() const;

    /**
     * Amortised storage overhead per protected frame:
     * codewordExtraDomains() / (codeword_frames * data domains).
     * Equals storageOverhead() at codeword_frames = 1.
     */
    double codewordStorageOverhead() const;

    /**
     * Redundancy-frame accesses charged per codeword update: 0 for
     * per-frame codes (check bits ride the frame itself), 1 once
     * frames pool their redundancy into a shared region that lives
     * at the codeword's base frame.
     */
    int redundancyAccessesPerWrite() const
    {
        return config.codeword_frames > 1 ? 1 : 0;
    }

    /** Offset needed to read segment-local index r. */
    int offsetForIndex(int r) const
    {
        if (r < 0 || r >= config.seg_len)
            rtm_panic("segment index %d out of range", r);
        return config.seg_len - 1 - r;
    }

    /** Expected code phase at believed cumulative offset o. */
    int expectedPhase(int offset, int period) const;

    /** Expected left-window code phase (p-ECC-O). */
    int expectedLeftPhase(int offset, int period) const;

    /** Build the port list for RacetrackStripe construction. */
    std::vector<Port> buildPorts() const;

    /** Index of data port s in the built port list. */
    int dataPortIndex(int segment) const
    {
        if (segment < 0 || segment >= config.num_segments)
            rtm_panic("segment %d out of range", segment);
        return segment;
    }

    /** Index of window port i in the built port list. */
    int windowPortIndex(int i) const;

    /** Index of left-window port i in the built port list. */
    int leftWindowPortIndex(int i) const;
};

/** Resolve a configuration into a concrete layout. */
PeccLayout computeLayout(const PeccConfig &config);

} // namespace rtm

#endif // RTM_CODEC_LAYOUT_HH
