#include "stats.hh"

#include <algorithm>
#include <cmath>

#include "logging.hh"

namespace rtm
{

void
RunningStats::add(double x)
{
    ++count_;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

void
RunningStats::merge(const RunningStats &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    uint64_t n = count_ + other.count_;
    double delta = other.mean_ - mean_;
    double na = static_cast<double>(count_);
    double nb = static_cast<double>(other.count_);
    double nn = static_cast<double>(n);
    mean_ += delta * nb / nn;
    m2_ += other.m2_ + delta * delta * na * nb / nn;
    count_ = n;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

double
RunningStats::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

Histogram::Histogram(double lo, double hi, size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0)
{
    if (!(hi > lo))
        rtm_panic("Histogram range [%g, %g) is empty", lo, hi);
    if (bins == 0)
        rtm_panic("Histogram needs at least one bin");
}

void
Histogram::add(double x, uint64_t weight)
{
    total_ += weight;
    if (x < lo_) {
        underflow_ += weight;
        return;
    }
    if (x >= hi_) {
        overflow_ += weight;
        return;
    }
    auto idx = static_cast<size_t>((x - lo_) / width_);
    if (idx >= counts_.size())
        idx = counts_.size() - 1; // floating point edge at hi
    counts_[idx] += weight;
}

uint64_t
Histogram::count(size_t i) const
{
    if (i >= counts_.size())
        rtm_panic("Histogram bin %zu out of range", i);
    return counts_[i];
}

double
Histogram::binLo(size_t i) const
{
    return lo_ + width_ * static_cast<double>(i);
}

double
Histogram::binHi(size_t i) const
{
    return lo_ + width_ * static_cast<double>(i + 1);
}

double
Histogram::density(size_t i) const
{
    uint64_t in_range = total_ - underflow_ - overflow_;
    if (in_range == 0)
        return 0.0;
    return static_cast<double>(count(i)) /
           static_cast<double>(in_range);
}

void
IntTally::merge(const IntTally &other)
{
    for (size_t k = 0; k < dense_.size(); ++k)
        dense_[k] += other.dense_[k];
    dense_keys_ |= other.dense_keys_;
    for (const auto &[k, c] : other.sparse_)
        sparse_[k] += c;
    total_ += other.total_;
}

uint64_t
IntTally::count(int64_t k) const
{
    if (k >= 0 && k < kDenseKeys)
        return dense_[static_cast<size_t>(k)];
    auto it = sparse_.find(k);
    return it == sparse_.end() ? 0 : it->second;
}

double
IntTally::mean() const
{
    if (total_ == 0)
        return 0.0;
    double acc = 0.0;
    forEachEntry([&acc](int64_t k, uint64_t c) {
        acc += static_cast<double>(k) * static_cast<double>(c);
    });
    return acc / static_cast<double>(total_);
}

std::vector<IntTally::Entry>
IntTally::entries() const
{
    std::vector<Entry> out;
    forEachEntry([&out](int64_t k, uint64_t c) { out.emplace_back(k, c); });
    return out;
}

} // namespace rtm
