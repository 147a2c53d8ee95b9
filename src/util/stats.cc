#include "stats.hh"

#include <algorithm>
#include <cmath>

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
