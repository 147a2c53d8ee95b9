#include "protection.hh"

#include <algorithm>

#include "codec/layout.hh"

namespace rtm
{

ResolvedProtection
resolveProtection(const ProtectionPolicy &policy,
                  uint64_t line_frames)
{
    ResolvedProtection out;
    out.domains.push_back(policy.uniform);
    if (policy.kind != ProtectionScopeKind::AddressRegion)
        return out;

    std::vector<ProtectionRegion> sorted = policy.regions;
    std::sort(sorted.begin(), sorted.end(),
              [](const ProtectionRegion &a,
                 const ProtectionRegion &b) {
                  return a.begin < b.begin;
              });
    for (const ProtectionRegion &r : sorted) {
        ResolvedProtection::Range range;
        const double b = std::clamp(r.begin, 0.0, 1.0);
        const double e = std::clamp(r.end, 0.0, 1.0);
        range.begin = static_cast<uint64_t>(
            b * static_cast<double>(line_frames));
        range.end = static_cast<uint64_t>(
            e * static_cast<double>(line_frames));
        // Snap to this domain's codeword boundaries so a codeword
        // never straddles two domains.
        const uint64_t f = static_cast<uint64_t>(
            std::max(r.domain.codeword_frames, 1));
        range.begin = (range.begin / f) * f;
        range.end = (range.end / f) * f;
        if (range.end <= range.begin)
            continue;
        range.domain = static_cast<int>(out.domains.size());
        out.domains.push_back(r.domain);
        out.ranges.push_back(range);
    }
    return out;
}

std::vector<ProtectionPolicyFault>
protectionPolicyErrors(const ProtectionPolicy &policy)
{
    std::vector<ProtectionPolicyFault> out;
    if (policy.kind != ProtectionScopeKind::AddressRegion &&
        !policy.regions.empty())
        out.push_back({"regions",
                       "only allowed when protection.kind is 'regions'"});
    for (size_t i = 0; i < policy.regions.size(); ++i) {
        const std::string at = "regions[" + std::to_string(i) + "].";
        const ProtectionRegion &g = policy.regions[i];
        if (g.end <= g.begin)
            out.push_back({at + "end", "must be in (begin, 1]"});
        for (size_t j = 0; j < i; ++j) {
            const ProtectionRegion &o = policy.regions[j];
            if (g.begin < o.end && o.begin < g.end)
                out.push_back({at + "begin", "overlaps regions[" +
                                                 std::to_string(j) + "]"});
        }
    }
    return out;
}

std::string
protectionDomainError(const ProtectionDomain &domain,
                      Scheme base_scheme, int seg_len,
                      int frames_per_group)
{
    PeccConfig cfg = peccConfigFor(
        domain.has_scheme ? domain.scheme : base_scheme,
        std::max(frames_per_group / seg_len, 1), seg_len);
    cfg.codeword_frames = domain.codeword_frames;
    cfg.two_tier = domain.two_tier;
    return protectionGeometryError(cfg, frames_per_group);
}

ProtectionPolicy
differentiatedPolicy(int cold_codeword_frames)
{
    ProtectionPolicy p;
    p.kind = ProtectionScopeKind::AddressRegion;
    // Hot quarter: the strong per-frame code (the default domain).
    // Cold three quarters: pooled codewords read two-tier.
    ProtectionRegion cold;
    cold.begin = 0.25;
    cold.end = 1.0;
    cold.domain.codeword_frames = cold_codeword_frames;
    cold.domain.two_tier = true;
    p.regions.push_back(cold);
    return p;
}

} // namespace rtm
