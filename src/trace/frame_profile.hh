/**
 * @file
 * Per-frame access profiles for offline data placement.
 *
 * A profiling run (SimConfig::frame_profile_out, which turns on
 * PlacementConfig::track_counts) captures how often each LLC line
 * frame was served by the racetrack bank. The profile feeds the
 * offline hot-center placement variant (PlacementConfig::profile) of
 * a second run.
 */

#ifndef RTM_TRACE_FRAME_PROFILE_HH
#define RTM_TRACE_FRAME_PROFILE_HH

#include <cstdint>
#include <vector>

namespace rtm
{

/** Access counts per LLC line frame, indexed by frame number. */
struct FrameProfile
{
    std::vector<uint64_t> counts;

    /** Sum of all per-frame counts. */
    uint64_t total() const;

    /**
     * Share of accesses landing in the hottest `top_fraction` of
     * frames (e.g. 0.1 for the top decile) — the skew a hot-center
     * placement exploits. Returns 0 for an empty profile;
     * `top_fraction` is clamped to [0, 1].
     */
    double hotShare(double top_fraction) const;
};

} // namespace rtm

#endif // RTM_TRACE_FRAME_PROFILE_HH
