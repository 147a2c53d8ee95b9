#include "rng.hh"

#include <algorithm>
#include <cmath>

#include "logging.hh"
#include "vecmath.hh"

namespace rtm
{

namespace
{

/** SplitMix64 step used to expand a single seed into generator state. */
uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

uint64_t
nonZeroBound(uint64_t n)
{
    if (n == 0)
        rtm_panic("uniformInt(0) is undefined");
    return n;
}

} // anonymous namespace

Rng::Rng(uint64_t seed)
{
    uint64_t s = seed;
    for (auto &word : state_)
        word = splitmix64(s);
    // xoshiro must not start from the all-zero state.
    if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 &&
        state_[3] == 0) {
        state_[0] = 1;
    }
}

uint64_t
Rng::uniformInt(uint64_t n)
{
    if (n == 0)
        rtm_panic("uniformInt(0) is undefined");
    // Rejection sampling to avoid modulo bias. For n = 2^k the
    // remainder UINT64_MAX % n is n - 1 and the reduction a mask:
    // the same limit, the same draws, the same value.
    const bool pow2 = (n & (n - 1)) == 0;
    const uint64_t limit =
        UINT64_MAX - (pow2 ? n - 1 : UINT64_MAX % n);
    uint64_t v;
    do {
        v = next();
    } while (v >= limit);
    return pow2 ? v & (n - 1) : v % n;
}

double
Rng::gaussian()
{
    if (has_cached_gauss_) {
        has_cached_gauss_ = false;
        return cached_gauss_;
    }
    // Box-Muller: two uniforms -> two independent standard normals.
    double u1;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    double u2 = uniform();
    double r = std::sqrt(-2.0 * std::log(u1));
    double theta = 2.0 * M_PI * u2;
    cached_gauss_ = r * std::sin(theta);
    has_cached_gauss_ = true;
    return r * std::cos(theta);
}

double
Rng::gaussian(double mean, double stddev)
{
    return mean + stddev * gaussian();
}

void
Rng::fillUniform(double *dst, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        dst[i] = uniform();
}

void
Rng::fillGaussian(double *dst, size_t n)
{
    size_t i = 0;
    if (i < n && has_cached_gauss_) {
        has_cached_gauss_ = false;
        dst[i++] = cached_gauss_;
    }
    // Whole pairs land directly in the output; only an odd tail
    // touches the cache, exactly like a trailing gaussian() call.
    while (i + 2 <= n) {
        double u1;
        do {
            u1 = uniform();
        } while (u1 <= 0.0);
        double u2 = uniform();
        double r = std::sqrt(-2.0 * std::log(u1));
        double theta = 2.0 * M_PI * u2;
        dst[i] = r * std::cos(theta);
        dst[i + 1] = r * std::sin(theta);
        i += 2;
    }
    if (i < n) {
        double u1;
        do {
            u1 = uniform();
        } while (u1 <= 0.0);
        double u2 = uniform();
        double r = std::sqrt(-2.0 * std::log(u1));
        double theta = 2.0 * M_PI * u2;
        cached_gauss_ = r * std::sin(theta);
        has_cached_gauss_ = true;
        dst[i] = r * std::cos(theta);
    }
}

void
Rng::fillGaussianFast(double *dst, size_t n)
{
    // Block size trades stack footprint against loop overhead; 128
    // pairs keeps all five lanes inside L1.
    constexpr size_t kBlockPairs = 128;
    double u1[kBlockPairs], u2[kBlockPairs], r[kBlockPairs];
    double ca[kBlockPairs], sa[kBlockPairs];

    size_t i = 0;
    while (i < n) {
        size_t want = n - i;
        size_t pairs = std::min(kBlockPairs, (want + 1) / 2);
        // The generator recurrence is serial; everything after this
        // scalar fill is lane-parallel.
        for (size_t p = 0; p < pairs; ++p) {
            double a = uniform();
            u1[p] = a > 0.0 ? a : 0x1.0p-53;
            u2[p] = uniform();
        }
#pragma omp simd
        for (size_t p = 0; p < pairs; ++p)
            r[p] = std::sqrt(-2.0 * vecmath::logUnit(u1[p]));
#pragma omp simd
        for (size_t p = 0; p < pairs; ++p)
            ca[p] = r[p] * vecmath::cos2pi(u2[p]);
#pragma omp simd
        for (size_t p = 0; p < pairs; ++p)
            sa[p] = r[p] * vecmath::sin2pi(u2[p]);
        // Interleave cos-first to match the scalar pair order; an
        // odd tail stops after the final cosine.
        size_t emit = std::min(want, 2 * pairs);
        for (size_t k = 0; k < emit; ++k)
            dst[i + k] = (k & 1) ? sa[k >> 1] : ca[k >> 1];
        i += emit;
    }
}

Rng
Rng::fork()
{
    return Rng(next());
}

FixedUniformInt::FixedUniformInt(uint64_t n)
    : div_(nonZeroBound(n)), limit_(UINT64_MAX - UINT64_MAX % n)
{
}

FixedBernoulli::FixedBernoulli(double p)
{
    if (p <= 0.0 || p >= 1.0) {
        draws_ = false;
        always_ = p >= 1.0;
    } else if (!std::isnan(p)) {
        threshold_ = static_cast<uint64_t>(std::ceil(p * 0x1.0p53));
    }
}

} // namespace rtm
