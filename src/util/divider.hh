/**
 * @file
 * Exact division by a run-time constant.
 *
 * The simulator divides by a handful of divisors fixed at
 * construction (stripe-group size, segment length, codeword width,
 * workload region sizes) on every request. A hardware 64-bit divide
 * costs tens of cycles; `Divider` replaces it with multiplications
 * by a 128-bit reciprocal M = ceil(2^128 / d) (Lemire, Kaser and
 * Kurz, "Faster remainder by direct computation", 2019):
 *
 *   a mod d = (((M * a) mod 2^128) * d) >> 128
 *   a / d   = (M * a) >> 128
 *
 * Both are exact for every 64-bit dividend a and every divisor
 * d >= 1: M * d - 2^128 < d <= 2^64 bounds the error term below
 * what either floor can see. d = 1 is the one divisor whose M
 * (2^128) does not fit; it is stored as M = 0, which the remainder
 * formula already maps to the right answer (0) and the quotient
 * selects `a` for. Power-of-two and other divisors take the same
 * path, so there is no fork to keep in step.
 */

#ifndef RTM_UTIL_DIVIDER_HH
#define RTM_UTIL_DIVIDER_HH

#include <cstdint>

#include "util/logging.hh"

namespace rtm
{

/** Exact quotient/remainder by a divisor fixed at construction. */
class Divider
{
  public:
    /** Division by 1, until assigned a real divisor. */
    Divider() : Divider(1) {}

    /** @pre d >= 1 (d = 0 is fatal). */
    explicit Divider(uint64_t d) : d_(d)
    {
        if (d == 0)
            rtm_fatal("division by zero");
        // Wraps to 0 for d = 1, as the class comment describes.
        m_ = ~static_cast<U128>(0) / d + 1;
    }

    uint64_t divisor() const { return d_; }

    /** a / d, exact for every 64-bit a. */
    uint64_t quotient(uint64_t a) const
    {
        return d_ == 1 ? a : mulHigh(m_, a);
    }

    /** a % d, exact for every 64-bit a. */
    uint64_t remainder(uint64_t a) const
    {
        return mulHigh(m_ * a, d_);
    }

  private:
    __extension__ using U128 = unsigned __int128;

    /** Bits 128..191 of the 192-bit product x * y. */
    static uint64_t mulHigh(U128 x, uint64_t y)
    {
        const U128 lo = static_cast<U128>(static_cast<uint64_t>(x)) * y;
        const U128 hi = static_cast<U128>(static_cast<uint64_t>(x >> 64)) *
                        y;
        return static_cast<uint64_t>((hi + (lo >> 64)) >> 64);
    }

    U128 m_;     //!< ceil(2^128 / d) mod 2^128
    uint64_t d_;
};

} // namespace rtm

#endif // RTM_UTIL_DIVIDER_HH
