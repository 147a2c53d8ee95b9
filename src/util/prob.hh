/**
 * @file
 * Log-domain probability helpers.
 *
 * Position-error rates in this system span ~25 orders of magnitude
 * (1e-3 down to 1e-21 and below, per Table 2 of the paper), so tail
 * probabilities are carried in natural-log space and only exponentiated
 * for display. All helpers here are branch-tested against closed forms.
 */

#ifndef RTM_UTIL_PROB_HH
#define RTM_UTIL_PROB_HH

#include <cmath>
#include <cstddef>
#include <limits>

namespace rtm
{

/** Natural log of the standard normal density at x. */
double logNormalPdf(double x);

/**
 * Natural log of the upper-tail probability Q(x) = P(Z > x) for a
 * standard normal Z.
 *
 * Uses std::erfc directly for x below ~26 (where erfc stays normal),
 * and the continued-fraction asymptotic expansion beyond, so values
 * like Q(40) ~ 1e-350 are representable in log space without
 * underflow.
 */
double logNormalTail(double x);

/** Upper-tail probability Q(x); may underflow to 0 for huge x. */
double normalTail(double x);

/**
 * Batched log Q(x): out[i] = logNormalTail(x[i]) for i in [0, n),
 * bit-identical to the scalar calls. The win is call-site shape, not
 * SIMD: a consumer that needs Q at a ladder of adjacent bin
 * boundaries (FittedErrorModel's table builder) evaluates each
 * boundary once through this instead of twice through the scalar
 * entry point.
 */
void logNormalTailBatch(const double *x, double *out, size_t n);

/** log(exp(a) + exp(b)) without overflow/underflow. */
double logSumExp(double a, double b);

/**
 * log(exp(a) - exp(b)) for a >= b.
 * Returns -inf when the difference underflows completely.
 */
double logDiffExp(double a, double b);

/** log(1 - exp(a)) for a <= 0 (log of complement probability). */
double log1mExp(double a);

/**
 * Probability that at least one of n independent events with
 * per-event log-probability lp occurs, returned in log space.
 * Computed as log1p(-exp(n * log1p(-p))) with care for tiny p.
 */
double logAnyOf(double lp, double n);

/**
 * Mean time to failure in seconds given a per-event failure
 * probability (log space) and an event rate in events/second.
 * Returns +inf when the failure probability underflows to zero.
 */
double mttfSeconds(double log_fail_prob, double events_per_second);

/** Seconds in a (365.25-day) year, shared by reporting code. */
constexpr double kSecondsPerYear = 31557600.0;

/** Convert failures-in-time (failures per 1e9 hours) to MTTF seconds. */
double fitToMttfSeconds(double fit);

/** Convert MTTF in seconds to FIT (failures per 1e9 device-hours). */
double mttfSecondsToFit(double mttf_s);

} // namespace rtm

#endif // RTM_UTIL_PROB_HH
