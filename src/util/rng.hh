/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * A small xoshiro256** generator is used instead of std::mt19937 to keep
 * streams compact, fast, and bit-identical across standard library
 * implementations (std::normal_distribution is not portable between
 * libstdc++ and libc++, which would make golden tests flaky).
 */

#ifndef RTM_UTIL_RNG_HH
#define RTM_UTIL_RNG_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "util/divider.hh"

namespace rtm
{

/**
 * xoshiro256** PRNG with explicit seeding and portable distributions.
 *
 * All derived sampling (uniform doubles, Gaussians) is implemented here
 * so that a given seed produces the same sequence on every platform.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed expanded through SplitMix64. */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    uint64_t next()
    {
        const uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
        const uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = std::rotl(state_[3], 45);
        return result;
    }

    /** Next 53-bit grid index m in [0, 2^53): uniform() is m * 2^-53. */
    uint64_t nextGrid() { return next() >> 11; }

    /** Uniform double in [0, 1). */
    double uniform()
    {
        // 53 random mantissa bits -> uniform in [0, 1).
        return static_cast<double>(nextGrid()) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Uniform integer in [0, n). @pre n > 0. */
    uint64_t uniformInt(uint64_t n);

    /**
     * Standard normal sample via Box-Muller.
     *
     * Box-Muller is chosen over the ziggurat for portability: it only
     * relies on log/cos/sin, which are correctly rounded enough across
     * libm implementations for reproducible simulation streams.
     */
    double gaussian();

    /** Normal sample with the given mean and standard deviation. */
    double gaussian(double mean, double stddev);

    /** True with probability p (clamped to [0, 1]). */
    bool bernoulli(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /**
     * Fill dst[0..n) with standard normals, element-for-element
     * identical to n successive gaussian() calls: the same uniforms
     * are consumed in the same order (including the u1 <= 0
     * rejection), pairs are emitted cos-first, and the Box-Muller
     * cache carries across calls exactly like the scalar path, so
     * interleaving fillGaussian and gaussian() on one stream still
     * reproduces the scalar sequence bit-for-bit.
     */
    void fillGaussian(double *dst, size_t n);

    /**
     * Fast-order batch of standard normals for the Monte-Carlo fast
     * tier. Consumes the same uniform pair stream as the scalar path
     * but differs in three documented ways, each of which removes a
     * data-dependent branch or a libm call from the transform:
     *
     *  - a zero u1 draw is clamped to 2^-53 instead of rejected
     *    (probability 2^-53 per draw, never observed in practice);
     *  - log/sin/cos come from the branchless polynomial kernels in
     *    util/vecmath.hh (|error| ~1e-11), evaluated over whole
     *    lanes in split, auto-vectorised loops;
     *  - an odd tail discards the final pair's sine instead of
     *    caching it, and the scalar Box-Muller cache is neither
     *    consumed nor updated.
     *
     * Output is a pure function of the stream state and n: the same
     * seed gives the same batch on every platform, preset and
     * RTM_THREADS setting. Values track gaussian() to ~1e-11 but are
     * NOT bit-identical; use fillGaussian for the exact tier.
     */
    void fillGaussianFast(double *dst, size_t n);

    /** Fork an independent stream (seeded from this stream). */
    Rng fork();

  private:
    std::array<uint64_t, 4> state_;
    double cached_gauss_ = 0.0;
    bool has_cached_gauss_ = false;
};

/**
 * Rng::uniformInt(n) for a bound fixed at construction: the rejection
 * limit is computed once and the reduction is a Divider remainder, so
 * a draw is a compare and four multiplications instead of two 64-bit
 * divisions. Consumes the same variates and returns the same values
 * as uniformInt(n), draw for draw.
 */
class FixedUniformInt
{
  public:
    /** @pre n > 0 (n = 0 panics, as in uniformInt). */
    explicit FixedUniformInt(uint64_t n);

    uint64_t bound() const { return div_.divisor(); }

    /** Uniform integer in [0, bound()). */
    uint64_t operator()(Rng &rng) const
    {
        uint64_t v;
        do {
            v = rng.next();
        } while (v >= limit_);
        return div_.remainder(v);
    }

  private:
    Divider div_;
    uint64_t limit_; //!< UINT64_MAX - UINT64_MAX % n
};

/**
 * Rng::bernoulli(p) for a probability fixed at construction, decided
 * in the integer domain. uniform() < p holds exactly when the grid
 * index m = nextGrid() is below ceil(p * 2^53) (scaling by 2^53 is
 * exact and m is an integer), so a coin is one shift and one integer
 * compare. Like bernoulli, p <= 0 and p >= 1 draw nothing, and a NaN p
 * draws one variate and returns false.
 */
class FixedBernoulli
{
  public:
    explicit FixedBernoulli(double p);

    bool operator()(Rng &rng) const
    {
        if (!draws_)
            return always_;
        return rng.nextGrid() < threshold_;
    }

    /** Grid indices below this say yes (introspection/tests). */
    uint64_t threshold() const { return threshold_; }

  private:
    bool draws_ = true;
    bool always_ = false;    //!< outcome when nothing is drawn
    uint64_t threshold_ = 0; //!< ceil(p * 2^53); 0 for NaN
};

} // namespace rtm

#endif // RTM_UTIL_RNG_HH
