/**
 * @file
 * Data placement and head-rest scheduling for the racetrack LLC.
 *
 * Every access costs the distance between a group's heads and the
 * frame's slot offset, so *where* a frame sits inside its stripe
 * group, and where the heads wait between accesses, are first-order
 * knobs. ShiftsReduce reports 24-50% shift reduction from
 * access-frequency-aware placement, and the paper's intro credits
 * "head management" [39, 44] with much of racetrack's cache
 * viability. One `Placement` per bank decides both, apart from the
 * bank mechanics (RmBank). Kinds:
 *
 *  - `static`     the arithmetic layout (paper Sec. 6.1), pinned by
 *                 the golden digests.
 *  - `hot-center` pack the most-accessed frames into the slots
 *                 nearest the heads' rest. With an offline profile
 *                 the layout is fixed at construction; without one,
 *                 each group reorganises once after its first epoch
 *                 and pays the migration shifts.
 *  - `adaptive`   bounded hot/cold slot swaps every epoch, their
 *                 migration shifts charged to the bank ledger.
 *
 * Adding a kind takes one PlacementKind row (and its token), one case
 * in recordAccess()'s epoch switch and, if it learns from accesses,
 * turning on `tracking_` in the constructor.
 *
 * Placement never moves functional bits: a "migration" is a
 * scheduled cost, not a data copy.
 */

#ifndef RTM_MEM_PLACEMENT_HH
#define RTM_MEM_PLACEMENT_HH

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "device/organisation.hh"
#include "util/fields.hh"

namespace rtm
{

/** Where a group's access heads rest after serving a request. */
enum class HeadPolicy
{
    Stay,       //!< leave heads where the last access put them
    ReturnHome, //!< drift back to offset 0 when idle
    Center,     //!< drift to the segment midpoint when idle
    Predictive  //!< drift to the group's hottest slot of last epoch
};

/** Spec/CLI tokens; "home" is a parse-only shorthand. */
constexpr auto
enumTokens(HeadPolicy)
{
    return std::to_array<EnumToken<HeadPolicy>>({
        {HeadPolicy::Stay, "stay"},
        {HeadPolicy::ReturnHome, "return-home"},
        {HeadPolicy::ReturnHome, "home"},
        {HeadPolicy::Center, "center"},
        {HeadPolicy::Predictive, "predictive"},
    });
}

/** Placement kind selector. */
enum class PlacementKind
{
    Static,    //!< arithmetic layout (paper Sec. 6.1), the baseline
    HotCenter, //!< frequency-ranked, hottest frames nearest the rest
    Adaptive   //!< epoch-based bounded hot/cold swaps at runtime
};

/** Tokens used in specs/CLI. */
constexpr auto
enumTokens(PlacementKind)
{
    return std::to_array<EnumToken<PlacementKind>>({
        {PlacementKind::Static, "static"},
        {PlacementKind::HotCenter, "hot-center"},
        {PlacementKind::Adaptive, "adaptive"},
    });
}

/** Placement configuration carried by RmBankConfig. */
struct PlacementConfig
{
    PlacementKind kind = PlacementKind::Static;

    /**
     * Per-group epoch length in accesses: a group reconsiders its
     * layout (and its predictive rest slot) every `epoch_accesses`
     * accesses it serves. Small by design — with the Table 4
     * geometry a group sees only a sliver of the bank's traffic.
     */
    uint64_t epoch_accesses = 64;

    /** Hot/cold slot swaps an adaptive group may make per epoch. */
    int swap_budget = 4;

    /**
     * Offline per-frame access counts (index = frame). When set,
     * hot-center computes its layout from this profile at
     * construction (the data is laid out before the cache fills, so
     * no migration cost is charged). Programmatic only — never
     * serialized into specs.
     */
    std::vector<uint64_t> profile;

    /**
     * Force per-frame access counting even for kinds that do not
     * need it. simulate() sets it for a profiling pass
     * (SimConfig::frame_profile_out).
     */
    bool track_counts = false;
};

/**
 * One scheduled frame move: the frame's slot offset changed, and the
 * bank must charge |to - from| single-step shifts on the group that
 * physically holds the frame. An adaptive swap emits two migrations.
 */
struct PlacementMigration
{
    uint64_t frame = 0;
    int from_offset = 0;
    int to_offset = 0;
};

/**
 * Frame -> slot mapping plus head-rest scheduling. A frame's group
 * is fixed by arithmetic (RmBank::groupOf; a group holds
 * kDomainsPerStripe frames under kSegLen offsets); its slot inside
 * the group and the group's rest offset are decided here, as a pure
 * function of the accesses seen by recordAccess() — so results stay
 * bit-identical at any thread count.
 */
class Placement
{
  public:
    Placement(uint64_t line_frames, const PlacementConfig &config,
              HeadPolicy head_policy);

    /** Head offset that serves `frame` in its group. */
    int slotOffset(uint64_t frame) const
    {
        return config_.kind == PlacementKind::Static ? homeOffset(frame)
                                                     : slot_[frame];
    }

    /** Offset `group`'s heads drift to when idle; empty under
     *  `stay`, whose heads never drift. */
    std::optional<int> restOffset(uint64_t group) const
    {
        switch (head_policy_) {
          case HeadPolicy::ReturnHome:
            return 0;
          case HeadPolicy::Center:
            return (kSegLen - 1) / 2;
          case HeadPolicy::Predictive:
            return group_rest_[group];
          case HeadPolicy::Stay:
            break;
        }
        return std::nullopt;
    }

    /** Whether the bank must call recordAccess() (false for static
     *  with a non-predictive head: no bookkeeping on the hot path). */
    bool tracking() const { return tracking_; }

    /** Observe one served access; migrations scheduled at an epoch
     *  boundary are appended to `out` for the bank to charge. */
    void recordAccess(uint64_t frame,
                      std::vector<PlacementMigration> *out);

    /** Per-frame access counts so far (empty until a tracking
     *  placement sees its first access): a profiling pass's output,
     *  the offline hot-center profile of a second run. */
    const std::vector<uint64_t> &frameCounts() const
    {
        return frame_count_;
    }

  private:
    /** Group epochs between two adaptive count halvings: halving
     *  every epoch would cap counts near the epoch length and drown
     *  mild skew in sampling noise. */
    static constexpr uint64_t kAgePeriod = 8;

    static constexpr uint64_t kFramesPerGroup = kDomainsPerStripe;
    /** Frames a group can hold per slot offset. */
    static constexpr int kSlotsPerOffset = kDomainsPerStripe / kSegLen;

    /** The arithmetic (static) slot of a frame; kSegLen divides the
     *  group size, so one reduction finds it. */
    static int homeOffset(uint64_t frame)
    {
        return kSegLen - 1 -
               static_cast<int>(frame % static_cast<uint64_t>(kSegLen));
    }

    /** Groups covering the bank's frames. */
    uint64_t groupCount() const
    {
        return (line_frames_ + kFramesPerGroup - 1) / kFramesPerGroup;
    }

    // Epoch steps over one group's frames [first, last).

    /** The offset whose frames carry the most counted accesses (ties
     *  toward the lower offset), or `idle` when none carries any. */
    int hottestOffset(uint64_t first, uint64_t last, int idle) const;

    /** Hot-center: fill the offsets nearest the rest anchor with the
     *  frames hottest by `counts`; one migration per moved frame
     *  goes to `out` when it is non-null. */
    void packHotCenter(uint64_t first, uint64_t last,
                       const uint64_t *counts,
                       std::vector<PlacementMigration> *out);

    /** Adaptive: swap up to `swap_budget` of the hottest frames
     *  outside the hottest offset with its coldest residents. */
    void swapIntoHottestOffset(uint64_t first, uint64_t last,
                               std::vector<PlacementMigration> *out);

    uint64_t line_frames_;
    PlacementConfig config_;
    HeadPolicy head_policy_;
    bool tracking_;

    /** Per-frame slot offsets (empty under the static kind). */
    std::vector<int8_t> slot_;
    /** Per-frame access counts (allocated only when tracking). */
    std::vector<uint64_t> frame_count_;
    /** Per-group accesses since the last epoch boundary. */
    std::vector<uint64_t> group_since_epoch_;
    /** Per-group completed-epoch counter. */
    std::vector<uint64_t> group_epochs_;
    /** Per-group predictive rest offset. */
    std::vector<int8_t> group_rest_;
    /** Adaptive scratch: frames outside / inside the target. */
    std::vector<uint64_t> outside_;
    std::vector<uint64_t> resident_;
};

} // namespace rtm

#endif // RTM_MEM_PLACEMENT_HH
