#include "frame_profile.hh"

#include <algorithm>
#include <cmath>
#include <functional>

namespace rtm
{

uint64_t
FrameProfile::total() const
{
    uint64_t sum = 0;
    for (uint64_t c : counts)
        sum += c;
    return sum;
}

double
FrameProfile::hotShare(double top_fraction) const
{
    const uint64_t sum = total();
    if (sum == 0 || counts.empty())
        return 0.0;
    top_fraction = std::min(1.0, std::max(0.0, top_fraction));
    auto top = static_cast<size_t>(std::ceil(
        top_fraction * static_cast<double>(counts.size())));
    if (top == 0)
        return 0.0;
    std::vector<uint64_t> sorted = counts;
    std::partial_sort(sorted.begin(), sorted.begin() +
                      static_cast<std::ptrdiff_t>(top),
                      sorted.end(), std::greater<uint64_t>());
    uint64_t hot = 0;
    for (size_t i = 0; i < top; ++i)
        hot += sorted[i];
    return static_cast<double>(hot) / static_cast<double>(sum);
}

} // namespace rtm
