/**
 * @file
 * Shift-code family: what a position-error codec does to an error.
 *
 * The paper's p-ECC protects shift operations with a cyclic de Bruijn
 * position code; the coding-theory line it spawned generalises the
 * idea in two directions, both classified here by one value type:
 *
 *  - limited-magnitude position codes (Chee et al., "Coding for
 *    Racetrack Memories"): decouple the window width w from the
 *    correction radius m, so a w-port window with period T = 2^w
 *    corrects any |e| <= m offset as long as 2m + 2 <= T. The paper's
 *    SED/SECDED codes are the w = m + 1 special case.
 *  - deletion/insertion codes (Sima & Bruck, "Correcting k Deletions
 *    and Insertions in Racetrack Memory"): drop the dedicated code
 *    region entirely and protect the data tracks themselves with
 *    interleaved Varshamov-Tenengolts codes, decoding a whole-track
 *    streaming readout that may have suffered up to k skipped
 *    (deletion) or repeated (insertion) reads (codec/del_ins.hh).
 *
 * Which code a scheme uses is a column of the scheme table
 * (model/tech.hh); its redundancy is PeccLayout's (codec/layout.hh).
 * A ShiftCode answers the one question the reliability model asks:
 * what a given ground-truth step error turns into (the SDC/DUE/
 * corrected decomposition).
 */

#ifndef RTM_CODEC_SHIFT_CODE_HH
#define RTM_CODEC_SHIFT_CODE_HH

#include "model/tech.hh"

namespace rtm
{

/** What a ground-truth step error turns into under a codec. */
enum class ErrorClass
{
    Ok,           //!< no error
    Corrected,    //!< decoder infers the exact error (counter-shift)
    Miscorrected, //!< decoder proposes a wrong correction -> SDC
    Ambiguous,    //!< detected but not correctable -> DUE
    Silent        //!< aliases to "no error" -> SDC
};

/** A position-error codec: its family, radius and period. */
struct ShiftCode
{
    CodeKind kind = CodeKind::None;
    int radius = -1; //!< m (cyclic) or k (del-ins); -1 without a code
    int period = 0;  //!< T = 2^w of a cyclic code; 0 otherwise

    ShiftCode() = default;

    /**
     * A cyclic code needs m >= 0 and 2m + 2 <= T (the 2m + 1
     * correctable residues plus one detect-only residue); a del-ins
     * code needs k >= 1.
     */
    ShiftCode(CodeKind kind, int radius, int period);

    /** Classify a ground-truth signed per-operation step error. */
    ErrorClass classify(int step_error) const;
};

} // namespace rtm

#endif // RTM_CODEC_SHIFT_CODE_HH
