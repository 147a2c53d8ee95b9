/**
 * @file
 * Lightweight running statistics and integer tallies shared by the
 * device Monte-Carlo, the cache simulator, and the benchmark harnesses.
 */

#ifndef RTM_UTIL_STATS_HH
#define RTM_UTIL_STATS_HH

#include <array>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace rtm
{

/**
 * Welford running mean / variance accumulator.
 *
 * Numerically stable for long accumulations (billions of samples) and
 * mergeable, so Monte-Carlo shards can be combined.
 */
class RunningStats
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Merge another accumulator into this one. */
    void merge(const RunningStats &other);

    /** Number of samples added. */
    uint64_t count() const { return count_; }

    /** Sample mean (0 if empty). */
    double mean() const { return count_ ? mean_ : 0.0; }

    /** Unbiased sample variance (0 if fewer than two samples). */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

    /** Smallest sample seen (+inf if empty). */
    double min() const { return min_; }

    /** Largest sample seen (-inf if empty). */
    double max() const { return max_; }

    /** Sum of all samples. */
    double sum() const { return mean_ * static_cast<double>(count_); }

    bool operator==(const RunningStats &) const = default;

    /**
     * Checkpoint keys (util/fields.hh): the raw Welford state, not
     * derived variance, so a reload reproduces the accumulator
     * bit-exactly. min/max are written only when non-empty (they are
     * ±inf sentinels otherwise, which JSON cannot carry).
     */
    template <class V, class... S>
        requires(std::same_as<std::remove_const_t<S>, RunningStats> &&
                 ...)
    friend void
    forEachField(V &&v, S &...s)
    {
        v("count", s.count_...);
        v("mean", s.mean_...);
        v("m2", s.m2_...);
        if (v.emitWhen((s.count_ > 0)...)) {
            v("min", s.min_...);
            v("max", s.max_...);
        }
    }

  private:
    uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Integer tally, used e.g. to count shift operations by distance or
 * p-ECC outcomes by step error. Small non-negative keys (shift
 * distances) land in a flat array, so the hot add is a store; every
 * other key goes to an ordered map. Callers see one ordered key set.
 */
class IntTally
{
  public:
    /** Keys in [0, kDenseKeys) are counted in the flat array. */
    static constexpr int64_t kDenseKeys = 64;

    /** One (key, count) pair. */
    using Entry = std::pair<int64_t, uint64_t>;

    /** Add weight to key k (a zero weight still records the key). */
    void add(int64_t k, uint64_t weight = 1)
    {
        if (k >= 0 && k < kDenseKeys) {
            dense_[static_cast<size_t>(k)] += weight;
            dense_keys_ |= uint64_t{1} << k;
        } else {
            sparse_[k] += weight;
        }
        total_ += weight;
    }

    /** Merge another tally into this one (per-key count sums). */
    void merge(const IntTally &other);

    /** Count at key k (0 if never added). */
    uint64_t count(int64_t k) const;

    /** Total weight across all keys. */
    uint64_t total() const { return total_; }

    /** Weighted mean of keys (0 if empty). */
    double mean() const;

    /** Call fn(key, count) for every recorded key, increasing. */
    template <class F>
    void
    forEachEntry(F &&fn) const
    {
        auto it = sparse_.begin();
        for (; it != sparse_.end() && it->first < 0; ++it)
            fn(it->first, it->second);
        for (uint64_t keys = dense_keys_; keys != 0;
             keys &= keys - 1) {
            const int k = std::countr_zero(keys);
            fn(int64_t{k}, dense_[static_cast<size_t>(k)]);
        }
        for (; it != sparse_.end(); ++it)
            fn(it->first, it->second);
    }

    /** All (key, count) pairs in increasing key order. */
    std::vector<Entry> entries() const;

    bool operator==(const IntTally &) const = default;

  private:
    std::array<uint64_t, kDenseKeys> dense_{};
    /** Bit k set once key k was added, with any weight. */
    uint64_t dense_keys_ = 0;
    /** Keys outside [0, kDenseKeys). */
    std::map<int64_t, uint64_t> sparse_;
    uint64_t total_ = 0;
};

} // namespace rtm

#endif // RTM_UTIL_STATS_HH
