#include "shift_code.hh"

#include <cstdlib>

#include "util/logging.hh"

namespace rtm
{

ShiftCode::ShiftCode(CodeKind kind, int radius, int period)
    : kind(kind), radius(radius), period(period)
{
    switch (kind) {
      case CodeKind::None:
        break;
      case CodeKind::Cyclic:
        if (radius < 0)
            rtm_fatal("correction radius must be >= 0, got %d", radius);
        if (period < 2 || (period & (period - 1)) != 0)
            rtm_fatal("code period %d is not a power of two >= 2",
                      period);
        // A cyclic code of period T distinguishes residues;
        // correcting +/-m needs the 2m + 1 correctable residues plus
        // at least one detect-only residue to be distinct:
        // 2m + 2 <= T.
        if (2 * radius + 2 > period)
            rtm_fatal("period %d too narrow to correct +/-%d offsets",
                      period, radius);
        break;
      case CodeKind::DelIns:
        if (radius < 1)
            rtm_fatal("del-ins code needs k >= 1, got %d", radius);
        break;
    }
}

ErrorClass
ShiftCode::classify(int step_error) const
{
    if (step_error == 0)
        return ErrorClass::Ok;
    switch (kind) {
      case CodeKind::None:
        return ErrorClass::Silent; // nothing sees the error
      case CodeKind::Cyclic: {
        const int t = period;
        const int m = radius;
        int diff = (step_error % t + t) % t;
        if (diff == 0)
            return ErrorClass::Silent; // aliases to "no error"
        if (diff <= m || t - diff <= m) {
            int inferred = diff <= m ? diff : -(t - diff);
            return inferred == step_error ? ErrorClass::Corrected
                                          : ErrorClass::Miscorrected;
        }
        return ErrorClass::Ambiguous; // detected, direction unknown
      }
      case CodeKind::DelIns:
        // Each protected readout absorbs a burst of up to k skipped
        // or repeated reads; the trailing-sentinel length check plus
        // the per-class VT syndromes expose anything larger, so there
        // is no silent alias and no miscorrection channel within the
        // device model's error range (see codec/del_ins.hh).
        return std::abs(step_error) <= radius ? ErrorClass::Corrected
                                              : ErrorClass::Ambiguous;
    }
    return ErrorClass::Ambiguous;
}

} // namespace rtm
