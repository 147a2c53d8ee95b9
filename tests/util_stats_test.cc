/**
 * @file
 * Unit tests for running statistics, histograms and tallies.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "util/fields.hh"
#include "util/rng.hh"
#include "util/stats.hh"

namespace rtm
{
namespace
{

TEST(RunningStats, EmptyIsNeutral)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownMoments)
{
    RunningStats s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12); // unbiased
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential)
{
    RunningStats all, a, b;
    for (int i = 0; i < 100; ++i) {
        double v = std::sin(i) * 10.0;
        all.add(v);
        (i % 2 ? a : b).add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty)
{
    RunningStats a, b;
    a.add(1.0);
    a.add(3.0);
    RunningStats a_copy = a;
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), a_copy.mean());
    b.merge(a);
    EXPECT_EQ(b.count(), 2u);
    EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Histogram, BinningAndEdges)
{
    Histogram h(0.0, 10.0, 10);
    h.add(0.0);   // bin 0
    h.add(0.999); // bin 0
    h.add(5.0);   // bin 5
    h.add(9.999); // bin 9
    h.add(-0.1);  // underflow
    h.add(10.0);  // overflow (right edge exclusive)
    EXPECT_EQ(h.count(0), 2u);
    EXPECT_EQ(h.count(5), 1u);
    EXPECT_EQ(h.count(9), 1u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.total(), 6u);
    EXPECT_DOUBLE_EQ(h.binLo(5), 5.0);
    EXPECT_DOUBLE_EQ(h.binHi(5), 6.0);
}

TEST(Histogram, DensityNormalisesOverInRangeMass)
{
    Histogram h(0.0, 4.0, 4);
    h.add(0.5, 3);
    h.add(2.5, 1);
    h.add(99.0, 6); // overflow ignored by density
    EXPECT_DOUBLE_EQ(h.density(0), 0.75);
    EXPECT_DOUBLE_EQ(h.density(2), 0.25);
    EXPECT_DOUBLE_EQ(h.density(1), 0.0);
}

TEST(Histogram, WeightedAdd)
{
    Histogram h(0.0, 1.0, 1);
    h.add(0.5, 42);
    EXPECT_EQ(h.count(0), 42u);
    EXPECT_EQ(h.total(), 42u);
}

TEST(IntTally, CountsAndMean)
{
    IntTally t;
    t.add(1, 3);
    t.add(7);
    t.add(-2, 2);
    EXPECT_EQ(t.count(1), 3u);
    EXPECT_EQ(t.count(7), 1u);
    EXPECT_EQ(t.count(-2), 2u);
    EXPECT_EQ(t.count(99), 0u);
    EXPECT_EQ(t.total(), 6u);
    EXPECT_NEAR(t.mean(), (3.0 * 1 + 7 - 2 * 2) / 6.0, 1e-12);
}

TEST(IntTally, EntriesAreOrdered)
{
    IntTally t;
    t.add(5);
    t.add(-1);
    t.add(3);
    std::vector<int64_t> keys;
    for (const auto &[k, c] : t.entries())
        keys.push_back(k);
    EXPECT_EQ(keys, (std::vector<int64_t>{-1, 3, 5}));
}

TEST(IntTally, MergeMatchesSingleStream)
{
    IntTally all, a, b;
    for (int i = 0; i < 200; ++i) {
        int64_t k = (i * 7) % 13 - 6;
        all.add(k, 1 + i % 3);
        (i % 2 ? a : b).add(k, 1 + i % 3);
    }
    a.merge(b);
    EXPECT_EQ(a.total(), all.total());
    EXPECT_EQ(a.entries(), all.entries());
    EXPECT_DOUBLE_EQ(a.mean(), all.mean());
}

TEST(IntTally, MergeWithEmptyIsIdentity)
{
    IntTally a, empty;
    a.add(2, 5);
    IntTally before = a;
    a.merge(empty);
    EXPECT_EQ(a.entries(), before.entries());
    empty.merge(a);
    EXPECT_EQ(empty.entries(), a.entries());
}

/** A tally as the one listed field of a document (util/fields.hh). */
struct TallyDoc
{
    IntTally tally;
    bool operator==(const TallyDoc &) const = default;
};

template <class V, FieldsOf<TallyDoc>... S>
void
forEachField(V &&v, S &...s)
{
    v("tally", s.tally...);
}

/** The std::map reference the tally must be indistinguishable from. */
using RefTally = std::map<int64_t, uint64_t>;

std::vector<IntTally::Entry>
refEntries(const RefTally &ref)
{
    return {ref.begin(), ref.end()};
}

uint64_t
refTotal(const RefTally &ref)
{
    uint64_t total = 0;
    for (const auto &[k, c] : ref)
        total += c;
    return total;
}

double
refMean(const RefTally &ref)
{
    const uint64_t total = refTotal(ref);
    if (total == 0)
        return 0.0;
    double acc = 0.0;
    for (const auto &[k, c] : ref)
        acc += static_cast<double>(k) * static_cast<double>(c);
    return acc / static_cast<double>(total);
}

/** The fields.hh pair bytes, written from the reference map. */
std::string
refPairBytes(const RefTally &ref)
{
    JsonValue v = JsonValue::array();
    for (const auto &[k, c] : ref) {
        JsonValue pair = JsonValue::array();
        pair.push(static_cast<double>(k));
        pair.push(c);
        v.push(std::move(pair));
    }
    return v.dump(0);
}

/** Seeded add(k, w) stream over negative keys, the dense window, and
 *  keys beyond it; about one call in six has weight zero. */
void
randomAdds(Rng &rng, int calls, IntTally *tally, RefTally *ref)
{
    for (int i = 0; i < calls; ++i) {
        int64_t k;
        switch (rng.uniformInt(4)) {
          case 0:
            k = -static_cast<int64_t>(1 + rng.uniformInt(40));
            break;
          case 1:
            k = IntTally::kDenseKeys +
                static_cast<int64_t>(rng.uniformInt(40));
            break;
          default:
            k = static_cast<int64_t>(
                rng.uniformInt(IntTally::kDenseKeys));
            break;
        }
        const uint64_t w =
            rng.uniformInt(6) == 0 ? 0 : 1 + rng.uniformInt(1000);
        tally->add(k, w);
        (*ref)[k] += w;
    }
}

void
expectMatches(const IntTally &t, const RefTally &ref,
              const std::string &ctx)
{
    EXPECT_EQ(t.entries(), refEntries(ref)) << ctx;
    EXPECT_EQ(t.total(), refTotal(ref)) << ctx;
    EXPECT_EQ(t.mean(), refMean(ref)) << ctx; // same order: bit-exact
    for (int64_t k = -45; k < IntTally::kDenseKeys + 45; ++k) {
        const auto it = ref.find(k);
        EXPECT_EQ(t.count(k), it == ref.end() ? 0 : it->second)
            << ctx << " key " << k;
    }
    EXPECT_EQ(toJson(t).dump(0), refPairBytes(ref)) << ctx;
    TallyDoc back;
    ASSERT_TRUE(fromJson(toJson(TallyDoc{t}), &back)) << ctx;
    EXPECT_TRUE(back.tally == t) << ctx;
    EXPECT_EQ(back.tally.entries(), refEntries(ref)) << ctx;
}

TEST(IntTally, MatchesOrderedMapReference)
{
    Rng rng(20260417);
    for (int round = 0; round < 50; ++round) {
        const std::string ctx = "round " + std::to_string(round);
        IntTally a, b;
        RefTally ra, rb;
        randomAdds(rng, 1 + static_cast<int>(rng.uniformInt(300)), &a,
                   &ra);
        randomAdds(rng, static_cast<int>(rng.uniformInt(300)), &b, &rb);
        expectMatches(a, ra, ctx + " a");
        expectMatches(b, rb, ctx + " b");

        RefTally rab = ra;
        for (const auto &[k, c] : rb)
            rab[k] += c;
        IntTally ab = a, ba = b;
        ab.merge(b);
        ba.merge(a);
        expectMatches(ab, rab, ctx + " a+b");
        expectMatches(ba, rab, ctx + " b+a");
        EXPECT_TRUE(ab == ba) << ctx;
        EXPECT_EQ(a == b, ra == rb) << ctx;
    }
}

TEST(IntTally, ZeroWeightKeysStayPresent)
{
    for (int64_t k : {int64_t{-3}, int64_t{0}, int64_t{5},
                      IntTally::kDenseKeys - 1, IntTally::kDenseKeys,
                      int64_t{1000}}) {
        IntTally t, empty;
        t.add(k, 0);
        EXPECT_EQ(t.entries(),
                  (std::vector<IntTally::Entry>{{k, 0}}))
            << k;
        EXPECT_EQ(t.total(), 0u) << k;
        EXPECT_FALSE(t == empty) << k;
        EXPECT_EQ(toJson(t).dump(0), refPairBytes({{k, 0}})) << k;
        empty.merge(t);
        EXPECT_TRUE(empty == t) << k;
    }
}

TEST(RunningStats, MergeManyShardsMatchesChanFormula)
{
    // Chan's parallel-variance update must agree with the single
    // stream across an uneven many-way split (the Monte-Carlo
    // reduction shape: 64 shards merged in order).
    RunningStats all;
    std::vector<RunningStats> shards(7);
    for (int i = 0; i < 500; ++i) {
        double v = std::cos(0.1 * i) * (i % 11) - 2.0;
        all.add(v);
        shards[(i * i) % shards.size()].add(v);
    }
    RunningStats merged;
    for (const auto &s : shards)
        merged.merge(s);
    EXPECT_EQ(merged.count(), all.count());
    EXPECT_NEAR(merged.mean(), all.mean(), 1e-12);
    EXPECT_NEAR(merged.variance(), all.variance(), 1e-10);
    EXPECT_DOUBLE_EQ(merged.min(), all.min());
    EXPECT_DOUBLE_EQ(merged.max(), all.max());
}

} // namespace
} // namespace rtm
