/**
 * @file
 * Unit tests for the deterministic PRNG.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/divider.hh"
#include "util/rng.hh"
#include "util/stats.hh"

namespace rtm
{
namespace
{

TEST(Rng, DeterministicGivenSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformStaysInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMomentsLookRight)
{
    Rng rng(11);
    RunningStats s;
    for (int i = 0; i < 100000; ++i)
        s.add(rng.uniform());
    EXPECT_NEAR(s.mean(), 0.5, 0.01);
    EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.005);
}

TEST(Rng, UniformIntCoversRangeWithoutBias)
{
    Rng rng(13);
    std::vector<int> counts(10, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.uniformInt(10)];
    for (int c : counts)
        EXPECT_NEAR(c, n / 10, n / 100);
}

TEST(Rng, GaussianMomentsLookRight)
{
    Rng rng(17);
    RunningStats s;
    for (int i = 0; i < 200000; ++i)
        s.add(rng.gaussian());
    EXPECT_NEAR(s.mean(), 0.0, 0.01);
    EXPECT_NEAR(s.stddev(), 1.0, 0.01);
}

TEST(Rng, GaussianTailFrequency)
{
    // |Z| > 3 should occur with probability ~2.7e-3.
    Rng rng(19);
    int tail = 0;
    const int n = 500000;
    for (int i = 0; i < n; ++i)
        tail += std::abs(rng.gaussian()) > 3.0;
    double freq = static_cast<double>(tail) / n;
    EXPECT_NEAR(freq, 2.7e-3, 5e-4);
}

TEST(Rng, ScaledGaussian)
{
    Rng rng(23);
    RunningStats s;
    for (int i = 0; i < 100000; ++i)
        s.add(rng.gaussian(10.0, 2.0));
    EXPECT_NEAR(s.mean(), 10.0, 0.05);
    EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, BernoulliEdgeCasesAndRate)
{
    Rng rng(29);
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.25);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(Rng, ForkedStreamsAreIndependent)
{
    Rng a(31);
    Rng b = a.fork();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, FillGaussianMatchesScalarAtEverySize)
{
    // The exact-tier contract: fillGaussian(dst, n) is
    // element-for-element identical to n gaussian() calls at every
    // batch size and tail remainder, including the Box-Muller
    // cached-sine handoff across the call boundary.
    for (size_t n = 0; n <= 67; ++n) {
        Rng a(1000 + n), b(1000 + n);
        std::vector<double> buf(n ? n : 1);
        a.fillGaussian(buf.data(), n);
        for (size_t i = 0; i < n; ++i)
            ASSERT_EQ(buf[i], b.gaussian()) << "n=" << n
                                            << " i=" << i;
        // Cache parity: the next scalar draw must still agree.
        EXPECT_EQ(a.gaussian(), b.gaussian()) << "n=" << n;
    }
    for (size_t n : {size_t(255), size_t(256), size_t(257),
                     size_t(511), size_t(513), size_t(4096)}) {
        Rng a(7), b(7);
        std::vector<double> buf(n);
        a.fillGaussian(buf.data(), n);
        for (size_t i = 0; i < n; ++i)
            ASSERT_EQ(buf[i], b.gaussian()) << "n=" << n
                                            << " i=" << i;
    }
}

TEST(Rng, FillGaussianHonoursPreSeededCache)
{
    // An odd scalar draw leaves a cached sine; the batch fill must
    // consume it first, exactly like the scalar path would.
    Rng a(55), b(55);
    (void)a.gaussian();
    (void)b.gaussian();
    std::vector<double> buf(100);
    a.fillGaussian(buf.data(), buf.size());
    for (size_t i = 0; i < buf.size(); ++i)
        ASSERT_EQ(buf[i], b.gaussian()) << "i=" << i;
}

TEST(Rng, FillGaussianFastIsSeedStable)
{
    // The fast tier reorders draws but must be a pure function of
    // the seed: two identically seeded generators produce identical
    // buffers, run after run.
    for (size_t n : {size_t(1), size_t(7), size_t(256),
                     size_t(1000)}) {
        Rng a(91), b(91);
        std::vector<double> x(n), y(n);
        a.fillGaussianFast(x.data(), n);
        b.fillGaussianFast(y.data(), n);
        EXPECT_EQ(x, y) << "n=" << n;
    }
}

TEST(Rng, FillGaussianFastMomentsAreStandardNormal)
{
    Rng rng(17);
    const size_t n = 200000;
    std::vector<double> buf(n);
    rng.fillGaussianFast(buf.data(), n);
    RunningStats s;
    for (double v : buf)
        s.add(v);
    EXPECT_NEAR(s.mean(), 0.0, 0.01);
    EXPECT_NEAR(s.stddev(), 1.0, 0.01);
}

TEST(Rng, FillGaussianFastTracksScalarValues)
{
    // Batch order consumes the same uniform stream pairwise, so the
    // values match the scalar cos/sin draws to polynomial accuracy
    // even though the ordering contract differs.
    Rng a(123), b(123);
    const size_t n = 256;
    std::vector<double> fast(n);
    a.fillGaussianFast(fast.data(), n);
    std::vector<double> scalar(n);
    for (size_t i = 0; i < n; ++i)
        scalar[i] = b.gaussian();
    std::sort(fast.begin(), fast.end());
    std::sort(scalar.begin(), scalar.end());
    for (size_t i = 0; i < n; ++i)
        EXPECT_NEAR(fast[i], scalar[i], 1e-9) << "i=" << i;
}

/** uniformInt as rejection + modulo, kept as the reference. */
uint64_t
referenceUniformInt(Rng &rng, uint64_t n)
{
    const uint64_t limit = UINT64_MAX - UINT64_MAX % n;
    uint64_t v;
    do {
        v = rng.next();
    } while (v >= limit);
    return v % n;
}

TEST(Rng, UniformIntMatchesRejectionModulo)
{
    // Powers of two take the mask path; 3 and 1000 stay on the
    // modulo path. Same values and the same stream position after.
    for (uint64_t n : {uint64_t{1}, uint64_t{2}, uint64_t{16},
                       uint64_t{1024}, uint64_t{1} << 40,
                       uint64_t{1} << 63, uint64_t{3},
                       uint64_t{1000}}) {
        Rng fast(77 + n), ref(77 + n);
        for (int i = 0; i < 100000; ++i) {
            const uint64_t want = referenceUniformInt(ref, n);
            const uint64_t got = fast.uniformInt(n);
            if (got != want) {
                ADD_FAILURE() << "n " << n << " draw " << i << ": "
                              << got << " != " << want;
                break;
            }
        }
        EXPECT_EQ(fast.next(), ref.next()) << "n " << n;
    }
}

TEST(Divider, MatchesHardwareDivision)
{
    constexpr uint64_t kMax = UINT64_MAX;
    const uint64_t divisors[] = {
        1, 2, 3, 7, 64, (uint64_t{1} << 32) - 1, (uint64_t{1} << 32) + 1,
        uint64_t{1} << 63, (uint64_t{1} << 63) + 1, kMax,
    };
    Rng rng(2024);
    for (uint64_t n : divisors) {
        const Divider div(n);
        EXPECT_EQ(div.divisor(), n);
        std::vector<uint64_t> dividends = {0, 1, n - 1, n, kMax};
        if (n < kMax)
            dividends.push_back(n + 1);
        for (int i = 0; i < 20000; ++i) {
            dividends.push_back(rng.next());
            // Small dividends too, where a reciprocal would first go
            // wrong.
            dividends.push_back(rng.next() >> (rng.next() & 63));
        }
        for (uint64_t a : dividends) {
            ASSERT_EQ(div.quotient(a), a / n) << a << " / " << n;
            ASSERT_EQ(div.remainder(a), a % n) << a << " % " << n;
        }
    }
}

TEST(Rng, FixedUniformIntMatchesUniformIntDrawForDraw)
{
    for (uint64_t n :
         {uint64_t{1}, uint64_t{2}, uint64_t{3}, uint64_t{16},
          uint64_t{1000}, uint64_t{98304}, uint64_t{1} << 40,
          uint64_t{1} << 63, (uint64_t{1} << 63) + 1, UINT64_MAX}) {
        const FixedUniformInt draw(n);
        EXPECT_EQ(draw.bound(), n);
        Rng fixed(91 + n), ref(91 + n);
        for (int i = 0; i < 100000; ++i) {
            const uint64_t want = ref.uniformInt(n);
            const uint64_t got = draw(fixed);
            if (got != want) {
                ADD_FAILURE() << "n " << n << " draw " << i << ": "
                              << got << " != " << want;
                break;
            }
        }
        EXPECT_EQ(fixed.next(), ref.next()) << "n " << n;
    }
}

TEST(Rng, FixedBernoulliMatchesBernoulliDrawForDraw)
{
    const double probabilities[] = {
        -1.0, 0.0, std::numeric_limits<double>::denorm_min(), 0x1.0p-53,
        0.25, 0.3, 0.55, std::nextafter(1.0, 0.0), 1.0, 2.0,
        std::numeric_limits<double>::quiet_NaN(),
    };
    for (double p : probabilities) {
        const FixedBernoulli coin(p);
        Rng fixed(5), ref(5);
        int hits = 0;
        for (int i = 0; i < 100000; ++i) {
            const bool want = ref.bernoulli(p);
            const bool got = coin(fixed);
            hits += got;
            if (got != want) {
                ADD_FAILURE() << "p " << p << " draw " << i;
                break;
            }
        }
        // Same variates consumed: none for p <= 0 or p >= 1, one per
        // coin otherwise (NaN included).
        EXPECT_EQ(fixed.next(), ref.next()) << "p " << p;
        if (std::isnan(p)) {
            EXPECT_EQ(hits, 0);
        }
    }
    // The boundary itself, which random draws (2^-53 apart) cannot
    // reach: grid index m says yes exactly when bernoulli's uniform()
    // value m * 2^-53 is below p.
    Rng pick(17);
    std::vector<double> inside = {
        std::numeric_limits<double>::denorm_min(), 0x1.0p-53, 0x1.8p-53,
        0.25, 0.3, 0.55, std::nextafter(1.0, 0.0)};
    for (int i = 0; i < 1000; ++i)
        inside.push_back(pick.uniform());
    for (double p : inside) {
        if (p <= 0.0)
            continue;
        const uint64_t t = FixedBernoulli(p).threshold();
        ASSERT_GT(t, 0u) << p;
        EXPECT_LT(static_cast<double>(t - 1) * 0x1.0p-53, p) << p;
        EXPECT_GE(static_cast<double>(t) * 0x1.0p-53, p) << p;
    }
    EXPECT_EQ(FixedBernoulli(std::nan("")).threshold(), 0u);

    // The NaN coin draws exactly one variate and says no.
    Rng a(11), b(11);
    EXPECT_FALSE(FixedBernoulli(std::nan(""))(a));
    b.next();
    EXPECT_EQ(a.next(), b.next());
}

} // namespace
} // namespace rtm
