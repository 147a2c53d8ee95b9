#include "placement.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace rtm
{

PlacementPolicy::PlacementPolicy(const PlacementGeometry &geom,
                                 const PlacementConfig &config,
                                 HeadPolicy head_policy)
    : geom_(geom), config_(config), head_policy_(head_policy)
{
    if (geom_.line_frames == 0)
        rtm_fatal("placement needs at least one frame");
    if (config_.epoch_accesses == 0)
        rtm_fatal("placement epoch must be >= 1 access");
    if (config_.swap_budget < 0)
        rtm_fatal("placement swap budget must be >= 0");
    if (!config_.profile.empty() &&
        config_.profile.size() != geom_.line_frames) {
        rtm_fatal("placement profile covers %zu frames, bank has "
                  "%llu",
                  config_.profile.size(),
                  static_cast<unsigned long long>(
                      geom_.line_frames));
    }
    fixed_rest_ = head_policy_ == HeadPolicy::Center
                      ? (kSegLen - 1) / 2
                      : 0;
    // Tracking is opt-in per policy; the base class only turns it on
    // for needs every policy shares (predictive rest scheduling,
    // explicit profiling passes). Subclasses OR-in their own.
    tracking_ = config_.track_counts ||
                head_policy_ == HeadPolicy::Predictive;

    if (head_policy_ == HeadPolicy::Predictive)
        group_rest_.assign(groupCount(), 0);
}

void
PlacementPolicy::frameRange(uint64_t group, uint64_t *first,
                            uint64_t *last) const
{
    *first = group * kFramesPerGroup;
    *last = std::min(*first + kFramesPerGroup, geom_.line_frames);
}

std::vector<int>
PlacementPolicy::offsetsByProximity(uint64_t group) const
{
    // Anchor the packing on where the heads will actually be: the
    // drift target for the drifting policies, the predicted rest for
    // predictive, and the segment midpoint for stay (no drift target
    // exists, so clustering around the center minimises the expected
    // hop between consecutive hot frames).
    int anchor;
    switch (head_policy_) {
      case HeadPolicy::ReturnHome:
        anchor = 0;
        break;
      case HeadPolicy::Center:
        anchor = fixed_rest_;
        break;
      case HeadPolicy::Predictive:
        anchor = group_rest_[group];
        break;
      case HeadPolicy::Stay:
      default:
        anchor = (kSegLen - 1) / 2;
        break;
    }
    std::vector<int> offsets(static_cast<size_t>(kSegLen));
    for (int o = 0; o < kSegLen; ++o)
        offsets[static_cast<size_t>(o)] = o;
    std::sort(offsets.begin(), offsets.end(),
              [anchor](int a, int b) {
                  int da = std::abs(a - anchor);
                  int db = std::abs(b - anchor);
                  if (da != db)
                      return da < db;
                  return a < b;
              });
    return offsets;
}

void
PlacementPolicy::updateRest(uint64_t group)
{
    uint64_t first, last;
    frameRange(group, &first, &last);
    // Rest under the slot that served the most accesses this epoch;
    // ties toward the lower offset, and an idle group keeps its
    // previous prediction.
    std::vector<uint64_t> &per_offset = offset_heat_;
    per_offset.assign(static_cast<size_t>(kSegLen), 0);
    for (uint64_t f = first; f < last; ++f)
        per_offset[static_cast<size_t>(slotOffset(f))] +=
            frame_count_[f];
    uint64_t best = 0;
    int best_offset = group_rest_[group];
    for (int o = 0; o < kSegLen; ++o) {
        uint64_t c = per_offset[static_cast<size_t>(o)];
        if (c > best) {
            best = c;
            best_offset = o;
        }
    }
    group_rest_[group] = static_cast<int8_t>(best_offset);
}

void
PlacementPolicy::recordAccess(uint64_t frame,
                              std::vector<PlacementMigration> *out)
{
    if (!tracking_)
        return;
    if (frame_count_.empty()) {
        // Lazily sized: most banks never track.
        frame_count_.assign(geom_.line_frames, 0);
        group_since_epoch_.assign(groupCount(), 0);
        group_epochs_.assign(groupCount(), 0);
    }
    ++frame_count_[frame];
    uint64_t g = groupOf(frame);
    if (++group_since_epoch_[g] < config_.epoch_accesses)
        return;
    group_since_epoch_[g] = 0;
    ++group_epochs_[g];
    onEpoch(g, out);
    if (head_policy_ == HeadPolicy::Predictive)
        updateRest(g);
    if (agesCounts() && group_epochs_[g] % kAgePeriod == 0) {
        // Exponential aging keeps the counters responsive to phase
        // changes without forgetting the ranking outright.
        uint64_t first, last;
        frameRange(g, &first, &last);
        for (uint64_t f = first; f < last; ++f)
            frame_count_[f] >>= 1;
    }
}

namespace
{

/** Today's layout: slot by arithmetic, nothing to learn. */
class StaticPlacement : public PlacementPolicy
{
  public:
    StaticPlacement(const PlacementGeometry &geom,
                    const PlacementConfig &config, HeadPolicy head)
        : PlacementPolicy(geom, config, head)
    {
    }

    const char *name() const override { return "static"; }

    int slotOffset(uint64_t frame) const override
    {
        return homeOffset(frame);
    }
};

/**
 * Shared layout table for the remapping policies: per-frame slot
 * offsets initialised to the arithmetic layout.
 */
class TablePlacement : public PlacementPolicy
{
  public:
    TablePlacement(const PlacementGeometry &geom,
                   const PlacementConfig &config, HeadPolicy head)
        : PlacementPolicy(geom, config, head),
          slot_(geom.line_frames)
    {
        for (uint64_t f = 0; f < geom_.line_frames; ++f)
            slot_[f] = static_cast<int8_t>(homeOffset(f));
    }

    int slotOffset(uint64_t frame) const override
    {
        return slot_[frame];
    }

  protected:
    /**
     * Pack `group`'s frames hottest-first into the slots nearest the
     * rest anchor (ShiftsReduce's center-out order), respecting the
     * per-offset capacity. Emits one migration per frame whose slot
     * changed when `out` is non-null.
     */
    void assignHotCenter(uint64_t group, const uint64_t *counts,
                         std::vector<PlacementMigration> *out)
    {
        uint64_t first, last;
        frameRange(group, &first, &last);
        std::vector<uint64_t> ranked(last - first);
        for (uint64_t f = first; f < last; ++f)
            ranked[f - first] = f;
        std::stable_sort(ranked.begin(), ranked.end(),
                         [counts](uint64_t a, uint64_t b) {
                             if (counts[a] != counts[b])
                                 return counts[a] > counts[b];
                             return a < b;
                         });
        const std::vector<int> order = offsetsByProximity(group);
        for (size_t i = 0; i < ranked.size(); ++i) {
            uint64_t f = ranked[i];
            int target =
                order[std::min(i / static_cast<size_t>(kSlotsPerOffset),
                               order.size() - 1)];
            int old = slot_[f];
            if (old == target)
                continue;
            slot_[f] = static_cast<int8_t>(target);
            if (out)
                out->push_back({f, old, target});
        }
    }

    std::vector<int8_t> slot_;
};

/**
 * ShiftsReduce-style frequency placement. Offline variant: layout
 * fixed at construction from the supplied profile. Online variant:
 * each group reorganises itself once, after its first epoch of
 * observed accesses, and pays the migration shifts.
 */
class HotCenterPlacement : public TablePlacement
{
  public:
    HotCenterPlacement(const PlacementGeometry &geom,
                       const PlacementConfig &config,
                       HeadPolicy head)
        : TablePlacement(geom, config, head)
    {
        if (!config_.profile.empty()) {
            // Offline: the layout exists before the cache fills, so
            // no migration cost is charged.
            for (uint64_t g = 0; g < groupCount(); ++g)
                assignHotCenter(g, config_.profile.data(), nullptr);
        } else {
            tracking_ = true;
            organized_.assign(groupCount(), 0);
        }
    }

    const char *name() const override { return "hot-center"; }

  protected:
    void onEpoch(uint64_t group,
                 std::vector<PlacementMigration> *out) override
    {
        if (organized_.empty() || organized_[group])
            return;
        organized_[group] = 1;
        assignHotCenter(group, frame_count_.data(), out);
    }

  private:
    /** 1 once a group's one-shot online reorganisation happened. */
    std::vector<uint8_t> organized_;
};

/**
 * Online remapping: every epoch a group concentrates its hottest
 * frames into the slot offset that already carries the most heat,
 * making up to `swap_budget` hot/cold swaps. Concentration zeroes
 * the head travel between the frames that dominate the access
 * stream (a stay-put head never leaves the slot while they trade
 * hits), and anchoring on the already-hottest offset makes the
 * target stable and the assembly cheap: the frames with the most
 * heat are disproportionately already there. A hysteresis gate (an
 * absolute margin for cold residents, a 1.5x heat ratio for warm
 * ones) stops the layout from chasing sampling noise — once the hot
 * set is resident, migrations cease. Counts age (halve) every
 * kAgePeriod epochs so the layout follows phase changes.
 */
class AdaptivePlacement : public TablePlacement
{
  public:
    AdaptivePlacement(const PlacementGeometry &geom,
                      const PlacementConfig &config, HeadPolicy head)
        : TablePlacement(geom, config, head)
    {
        tracking_ = true;
    }

    const char *name() const override { return "adaptive"; }

  protected:
    bool agesCounts() const override { return true; }

    void onEpoch(uint64_t group,
                 std::vector<PlacementMigration> *out) override
    {
        if (config_.swap_budget == 0)
            return;
        uint64_t first, last;
        frameRange(group, &first, &last);
        const uint64_t *counts = frame_count_.data();

        // Target slot: the offset whose residents drew the most
        // accesses. Ties toward the lower offset for determinism.
        std::vector<uint64_t> &per_offset = offset_heat_;
        per_offset.assign(static_cast<size_t>(kSegLen), 0);
        for (uint64_t f = first; f < last; ++f)
            per_offset[static_cast<size_t>(slot_[f])] += counts[f];
        int target = 0;
        for (int o = 1; o < kSegLen; ++o)
            if (per_offset[static_cast<size_t>(o)] >
                per_offset[static_cast<size_t>(target)])
                target = o;

        // Hottest outside frames, coldest residents. Only the first
        // `pairs` of each ranking can swap, and (count, frame) is a
        // strict total order, so a partial sort yields exactly the
        // prefix a full sort would.
        std::vector<uint64_t> &outside = outside_;
        std::vector<uint64_t> &resident = resident_;
        outside.clear();
        resident.clear();
        for (uint64_t f = first; f < last; ++f)
            (slot_[f] == target ? resident : outside).push_back(f);
        const size_t pairs = std::min(
            {outside.size(), resident.size(),
             static_cast<size_t>(kSlotsPerOffset),
             static_cast<size_t>(config_.swap_budget)});
        std::partial_sort(outside.begin(),
                          outside.begin() +
                              static_cast<std::ptrdiff_t>(pairs),
                          outside.end(),
                          [counts](uint64_t a, uint64_t b) {
                              if (counts[a] != counts[b])
                                  return counts[a] > counts[b];
                              return a < b;
                          });
        std::partial_sort(resident.begin(),
                          resident.begin() +
                              static_cast<std::ptrdiff_t>(pairs),
                          resident.end(),
                          [counts](uint64_t a, uint64_t b) {
                              if (counts[a] != counts[b])
                                  return counts[a] < counts[b];
                              return a < b;
                          });
        for (size_t i = 0; i < pairs; ++i) {
            uint64_t a = outside[i];  // hot, wants in
            uint64_t b = resident[i]; // cold, gets a's old slot
            // The move must clearly pay for its shift cost. Two
            // regimes: promoting a proven frame over a cold resident
            // needs only a small absolute margin (the saving scales
            // with the rate gap), while displacing an already-warm
            // resident additionally needs a 1.5x heat ratio — the
            // hot-set boundary is full of near-ties, and swapping
            // equals churns migration steps for no expected win.
            if (counts[a] <
                counts[b] + std::max<uint64_t>(2, counts[b] / 2))
                break;
            int from_a = slot_[a];
            slot_[a] = static_cast<int8_t>(target);
            slot_[b] = static_cast<int8_t>(from_a);
            out->push_back({a, from_a, target});
            out->push_back({b, target, from_a});
        }
    }

  private:
    /** Epoch scratch: frames outside / inside the target offset. */
    std::vector<uint64_t> outside_;
    std::vector<uint64_t> resident_;
};

} // anonymous namespace

std::unique_ptr<PlacementPolicy>
makePlacementPolicy(const PlacementGeometry &geom,
                    const PlacementConfig &config,
                    HeadPolicy head_policy)
{
    switch (config.kind) {
      case PlacementKind::Static:
        return std::make_unique<StaticPlacement>(geom, config,
                                                 head_policy);
      case PlacementKind::HotCenter:
        return std::make_unique<HotCenterPlacement>(geom, config,
                                                    head_policy);
      case PlacementKind::Adaptive:
        return std::make_unique<AdaptivePlacement>(geom, config,
                                                   head_policy);
    }
    rtm_fatal("unknown placement kind");
    return nullptr;
}

} // namespace rtm
