#include "placement.hh"

#include <algorithm>

#include "util/logging.hh"

namespace rtm
{

Placement::Placement(uint64_t line_frames, const PlacementConfig &config,
                     HeadPolicy head_policy)
    : line_frames_(line_frames), config_(config),
      head_policy_(head_policy)
{
    if (line_frames_ == 0)
        rtm_fatal("placement needs at least one frame");
    if (config_.epoch_accesses == 0)
        rtm_fatal("placement epoch must be >= 1 access");
    if (config_.swap_budget < 0)
        rtm_fatal("placement swap budget must be >= 0");
    if (!config_.profile.empty() &&
        config_.profile.size() != line_frames_) {
        rtm_fatal("placement profile covers %zu frames, bank has "
                  "%llu",
                  config_.profile.size(),
                  static_cast<unsigned long long>(line_frames_));
    }
    const bool online_hot_center =
        config_.kind == PlacementKind::HotCenter &&
        config_.profile.empty();
    tracking_ = config_.track_counts ||
                head_policy_ == HeadPolicy::Predictive ||
                config_.kind == PlacementKind::Adaptive ||
                online_hot_center;
    if (head_policy_ == HeadPolicy::Predictive)
        group_rest_.assign(groupCount(), 0);
    if (config_.kind == PlacementKind::Static)
        return;

    slot_.resize(line_frames_); // remapping starts from static
    for (uint64_t f = 0; f < line_frames_; ++f)
        slot_[f] = static_cast<int8_t>(homeOffset(f));
    if (config_.kind == PlacementKind::HotCenter && !online_hot_center) {
        // Offline: the layout exists before the cache fills, so no
        // migration cost is charged.
        for (uint64_t first = 0; first < line_frames_;
             first += kFramesPerGroup)
            packHotCenter(first,
                          std::min(first + kFramesPerGroup, line_frames_),
                          config_.profile.data(), nullptr);
    }
}

void
Placement::recordAccess(uint64_t frame,
                        std::vector<PlacementMigration> *out)
{
    if (!tracking_)
        return;
    if (frame_count_.empty()) {
        // Lazily sized: most banks never track.
        frame_count_.assign(line_frames_, 0);
        group_since_epoch_.assign(groupCount(), 0);
        group_epochs_.assign(groupCount(), 0);
    }
    ++frame_count_[frame];
    const uint64_t g = frame / kFramesPerGroup;
    if (++group_since_epoch_[g] < config_.epoch_accesses)
        return;
    group_since_epoch_[g] = 0;
    ++group_epochs_[g];
    const uint64_t first = g * kFramesPerGroup;
    const uint64_t last = std::min(first + kFramesPerGroup, line_frames_);

    // Epoch boundary: reorganise, then re-predict the rest slot from
    // the new layout, then age the adaptive counts.
    switch (config_.kind) {
      case PlacementKind::Static:
        break;
      case PlacementKind::HotCenter:
        // Online only: each group reorganises once, after its first
        // epoch of observed accesses.
        if (config_.profile.empty() && group_epochs_[g] == 1)
            packHotCenter(first, last, frame_count_.data(), out);
        break;
      case PlacementKind::Adaptive:
        if (config_.swap_budget > 0)
            swapIntoHottestOffset(first, last, out);
        break;
    }
    if (head_policy_ == HeadPolicy::Predictive) {
        // Rest under the slot that served the most accesses this
        // epoch; an idle group keeps its previous prediction.
        group_rest_[g] =
            static_cast<int8_t>(hottestOffset(first, last, group_rest_[g]));
    }
    if (config_.kind == PlacementKind::Adaptive &&
        group_epochs_[g] % kAgePeriod == 0) {
        // Exponential aging keeps the counters responsive to phase
        // changes without forgetting the ranking outright.
        for (uint64_t f = first; f < last; ++f)
            frame_count_[f] >>= 1;
    }
}

int
Placement::hottestOffset(uint64_t first, uint64_t last, int idle) const
{
    std::array<uint64_t, kSegLen> heat{};
    for (uint64_t f = first; f < last; ++f)
        heat[static_cast<size_t>(slotOffset(f))] += frame_count_[f];
    uint64_t best = 0;
    int best_offset = idle;
    for (int o = 0; o < kSegLen; ++o) {
        if (heat[static_cast<size_t>(o)] > best) {
            best = heat[static_cast<size_t>(o)];
            best_offset = o;
        }
    }
    return best_offset;
}

void
Placement::packHotCenter(uint64_t first, uint64_t last,
                         const uint64_t *counts,
                         std::vector<PlacementMigration> *out)
{
    std::vector<uint64_t> ranked(last - first);
    for (uint64_t f = first; f < last; ++f)
        ranked[f - first] = f;
    std::stable_sort(ranked.begin(), ranked.end(),
                     [counts](uint64_t a, uint64_t b) {
                         if (counts[a] != counts[b])
                             return counts[a] > counts[b];
                         return a < b;
                     });
    // Offsets nearest-first around where the heads will actually be
    // (ties toward the lower offset). Stay has no drift target, so it
    // clusters around the segment midpoint, which minimises the
    // expected hop between consecutive hot frames.
    const int anchor =
        restOffset(first / kFramesPerGroup).value_or((kSegLen - 1) / 2);
    std::array<int, kSegLen> order{};
    size_t n = 0;
    for (int d = 0; n < order.size(); ++d) {
        if (anchor - d >= 0)
            order[n++] = anchor - d;
        if (d > 0 && anchor + d < kSegLen)
            order[n++] = anchor + d;
    }
    for (size_t i = 0; i < ranked.size(); ++i) {
        const uint64_t f = ranked[i];
        const int target =
            order[std::min(i / static_cast<size_t>(kSlotsPerOffset),
                           order.size() - 1)];
        const int old = slot_[f];
        if (old == target)
            continue;
        slot_[f] = static_cast<int8_t>(target);
        if (out)
            out->push_back({f, old, target});
    }
}

/*
 * Concentrating the hottest frames into one offset zeroes the head
 * travel between the frames that dominate the stream, and anchoring
 * on the already-hottest offset keeps the target stable and the
 * assembly cheap: most of the heat is already there. The hysteresis
 * gate below stops the layout chasing sampling noise, so migrations
 * cease once the hot set is resident.
 */
void
Placement::swapIntoHottestOffset(uint64_t first, uint64_t last,
                                 std::vector<PlacementMigration> *out)
{
    const uint64_t *counts = frame_count_.data();
    const int target = hottestOffset(first, last, 0);

    // Hottest outside frames, coldest residents. Only the first
    // `pairs` of each ranking can swap, and (count, frame) is a
    // strict total order, so a partial sort yields exactly the
    // prefix a full sort would.
    outside_.clear();
    resident_.clear();
    for (uint64_t f = first; f < last; ++f)
        (slot_[f] == target ? resident_ : outside_).push_back(f);
    const size_t pairs =
        std::min({outside_.size(), resident_.size(),
                  static_cast<size_t>(kSlotsPerOffset),
                  static_cast<size_t>(config_.swap_budget)});
    const auto prefix = static_cast<std::ptrdiff_t>(pairs);
    std::partial_sort(outside_.begin(), outside_.begin() + prefix,
                      outside_.end(), [counts](uint64_t a, uint64_t b) {
                          if (counts[a] != counts[b])
                              return counts[a] > counts[b];
                          return a < b;
                      });
    std::partial_sort(resident_.begin(), resident_.begin() + prefix,
                      resident_.end(), [counts](uint64_t a, uint64_t b) {
                          if (counts[a] != counts[b])
                              return counts[a] < counts[b];
                          return a < b;
                      });
    for (size_t i = 0; i < pairs; ++i) {
        const uint64_t a = outside_[i];  // hot, wants in
        const uint64_t b = resident_[i]; // cold, gets a's old slot
        // The move must clearly pay for its shifts: a small absolute
        // margin over a cold resident, and a 1.5x heat ratio over a
        // warm one (the hot-set boundary is full of near-ties, and
        // swapping equals churns migration steps for nothing).
        if (counts[a] < counts[b] + std::max<uint64_t>(2, counts[b] / 2))
            break;
        const int from_a = slot_[a];
        slot_[a] = static_cast<int8_t>(target);
        slot_[b] = static_cast<int8_t>(from_a);
        out->push_back({a, from_a, target});
        out->push_back({b, target, from_a});
    }
}

} // namespace rtm
