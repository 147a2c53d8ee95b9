/**
 * @file
 * Port-position (head) scheduling policies.
 *
 * Serving a frame costs the distance between the group's current
 * head position and the frame's slot, so where the heads *rest*
 * between requests is a scheduling decision of its own. The paper's
 * intro credits "head management" techniques [39, 44] with much of
 * racetrack's cache viability; stay/return-home/center are the
 * standard options from that literature, and predictive is the
 * placement-aware variant that parks each group's heads under the
 * slot that served the most accesses in the group's last epoch
 * (mem/placement.hh supplies the per-group prediction).
 */

#ifndef RTM_CONTROL_HEAD_POLICY_HH
#define RTM_CONTROL_HEAD_POLICY_HH

#include <string>

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

} // namespace rtm

#endif // RTM_CONTROL_HEAD_POLICY_HH
