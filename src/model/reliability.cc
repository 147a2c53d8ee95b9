#include "reliability.hh"

#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "util/logging.hh"
#include "util/prob.hh"

namespace rtm
{

namespace
{

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

} // anonymous namespace

ShiftReliability
ShiftReliability::none()
{
    return ShiftReliability{kNegInf, kNegInf, kNegInf};
}

ReliabilityModel::ReliabilityModel(const PositionErrorModel *model,
                                   Scheme scheme,
                                   int codeword_frames)
    : model_(model)
{
    if (!model_)
        rtm_fatal("reliability model needs an error model");
    const SchemeRow &row = schemeRow(scheme);
    code_ = ShiftCode(row.code, row.radius, row.period());
    if (codeword_frames > 1 && code_.kind != CodeKind::None) {
        // Pooled codewords: F frames share one redundancy region
        // whose extra check bits buy log2(F) more correction radius
        // (spec validation already rejected geometries where the
        // boosted radius does not fit the stripe tail). Re-derive
        // the code at the boosted strength, on the narrowest cyclic
        // period that holds it, so the classification walk below
        // sees the larger radius.
        int boost = 0;
        for (int f = codeword_frames; f > 1; f >>= 1)
            ++boost;
        const int m = code_.radius + boost;
        code_ = ShiftCode(code_.kind, m,
                          code_.kind == CodeKind::Cyclic
                              ? static_cast<int>(std::bit_ceil(
                                    static_cast<unsigned>(2 * m + 2)))
                              : 0);
    }
}

ShiftReliability
ReliabilityModel::shiftOp(int distance) const
{
    ShiftReliability r = ShiftReliability::none();
    if (distance <= 0)
        return r;

    const int kmax = model_->maxStepError();
    if (code_.kind == CodeKind::None) {
        // Unprotected: every position error silently corrupts.
        r.log_sdc = model_->logProbAtLeast(distance, 1);
        return r;
    }

    const int m = code_.radius;
    // One batched ladder fetch covers every (sign, magnitude) the
    // classification walk below needs; values are bit-identical to
    // the per-call logProbStep evaluations this loop used to make.
    std::vector<double> lp_plus(static_cast<size_t>(kmax)),
        lp_minus(static_cast<size_t>(kmax));
    if (kmax > 0)
        model_->logProbStepRange(distance, kmax, lp_plus.data(),
                                 lp_minus.data());
    for (int mag = 1; mag <= kmax; ++mag) {
        for (int sign : {+1, -1}) {
            double lp = sign > 0 ? lp_plus[mag - 1]
                                 : lp_minus[mag - 1];
            if (lp == kNegInf)
                continue;
            // The shift code's own classification of this error; for
            // the cyclic family this reproduces the residue walk the
            // loop used to inline (same branches, same accumulation
            // order, bit-identical results).
            switch (code_.classify(sign * mag)) {
              case ErrorClass::Ok:
                break; // mag >= 1 never classifies as Ok
              case ErrorClass::Silent:
                // Aliases to "no error": silent.
                r.log_sdc = logSumExp(r.log_sdc, lp);
                break;
              case ErrorClass::Corrected: {
                // Right answer: corrected (counter-shift may itself
                // fail; second-order DUE term).
                double corr_fail = model_->logProbAtLeast(mag, m + 1);
                r.log_corrected = logSumExp(r.log_corrected, lp);
                r.log_due = logSumExp(r.log_due, lp + corr_fail);
                break;
              }
              case ErrorClass::Miscorrected:
                // Position silently worsens.
                r.log_sdc = logSumExp(r.log_sdc, lp);
                break;
              case ErrorClass::Ambiguous:
                // Detected, direction unknown -> unrecoverable.
                r.log_due = logSumExp(r.log_due, lp);
                break;
            }
        }
    }
    return r;
}

ShiftReliability
ReliabilityModel::sequence(const std::vector<int> &parts) const
{
    ShiftReliability total = ShiftReliability::none();
    for (int part : parts) {
        ShiftReliability r = shiftOp(part);
        total.log_sdc = logSumExp(total.log_sdc, r.log_sdc);
        total.log_due = logSumExp(total.log_due, r.log_due);
        total.log_corrected =
            logSumExp(total.log_corrected, r.log_corrected);
    }
    return total;
}

void
MttfAccumulator::add(const ShiftReliability &r, double weight)
{
    if (r.log_sdc != kNegInf)
        sdc_events_ += weight * std::exp(r.log_sdc);
    if (r.log_due != kNegInf)
        due_events_ += weight * std::exp(r.log_due);
}

Seconds
MttfAccumulator::sdcMttf() const
{
    if (sdc_events_ <= 0.0)
        return std::numeric_limits<double>::infinity();
    return seconds_ / sdc_events_;
}

Seconds
MttfAccumulator::dueMttf() const
{
    if (due_events_ <= 0.0)
        return std::numeric_limits<double>::infinity();
    return seconds_ / due_events_;
}

void
MttfAccumulator::merge(const MttfAccumulator &other)
{
    sdc_events_ += other.sdc_events_;
    due_events_ += other.due_events_;
    seconds_ += other.seconds_;
}

Seconds
steadyStateMttf(double log_fail_per_op, double ops_per_second)
{
    return mttfSeconds(log_fail_per_op, ops_per_second);
}

} // namespace rtm
