/**
 * @file
 * Protection domains: "how is this region protected" as a policy.
 *
 * The paper protects every frame with one fixed-strength p-ECC code.
 * Production memory systems instead pick protection per region and
 * amortise check bits over large codewords (the Ramulator2_ECC
 * direction, ROADMAP item 3): 2/4/8 frames pool their redundancy
 * into one shared region, buying log2(F) extra correction strength
 * at sub-linear per-frame overhead, paid for with redundancy-frame
 * accesses the bank charges as real shifts and bandwidth.
 *
 * A ProtectionDomain names one such contract (scheme override,
 * frames per codeword, two-tier read discipline); a
 * ProtectionPolicy maps the machine onto domains — uniformly or per
 * address region — and resolves to the compact per-frame table the
 * racetrack bank consults on its hot path.
 *
 * The default policy (uniform, single-frame, one-tier) is the
 * paper's configuration and leaves every golden digest bit-identical:
 * no redundancy accesses are charged and the reliability fold uses
 * the unboosted scheme model.
 */

#ifndef RTM_MEM_PROTECTION_HH
#define RTM_MEM_PROTECTION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "model/tech.hh"

namespace rtm
{

/** How a ProtectionPolicy maps the machine onto domains. */
enum class ProtectionScopeKind
{
    Uniform,       //!< one domain for everything
    AddressRegion, //!< domains over fractions of the frame space
};

/** Spec/CLI tokens for the scope kinds. */
constexpr auto
enumTokens(ProtectionScopeKind)
{
    return std::to_array<EnumToken<ProtectionScopeKind>>({
        {ProtectionScopeKind::Uniform, "uniform"},
        {ProtectionScopeKind::AddressRegion, "regions"},
    });
}

/** One protection contract. */
struct ProtectionDomain
{
    /**
     * Scheme override for this domain. When set, it replaces the
     * hierarchy's scheme in this domain's reliability
     * classification (and, for the uniform domain, the bank's
     * scheme outright). Plan decomposition and shift timing always
     * follow the bank's base scheme: position-code geometry is
     * shared by every stripe of a bank.
     */
    bool has_scheme = false;
    Scheme scheme = Scheme::PeccSAdaptive;

    /** Frames pooled into one codeword (1, 2, 4 or 8). */
    int codeword_frames = 1;

    /** Two-tier EDC-then-ECC read discipline. */
    bool two_tier = false;

    bool operator==(const ProtectionDomain &o) const
    {
        return has_scheme == o.has_scheme &&
               (!has_scheme || scheme == o.scheme) &&
               codeword_frames == o.codeword_frames &&
               two_tier == o.two_tier;
    }
};

/**
 * Spec keys of a domain (util/fields.hh); `scheme` is present only
 * when it overrides. Regions inline these keys.
 */
template <class V, FieldsOf<ProtectionDomain>... S>
void
forEachField(V &&v, S &...s)
{
    v("scheme", PresentIf{s.has_scheme, s.scheme}...);
    v("codeword_frames", s.codeword_frames...);
    v("two_tier", s.two_tier...);
}

/** One address-region entry: [begin, end) fractions of the frames. */
struct ProtectionRegion
{
    double begin = 0.0; //!< inclusive fraction of the frame space
    double end = 1.0;   //!< exclusive fraction of the frame space
    ProtectionDomain domain;

    bool operator==(const ProtectionRegion &) const = default;
};

template <class V, FieldsOf<ProtectionRegion>... S>
void
forEachField(V &&v, S &...s)
{
    v("begin", InRange{s.begin, 0.0, Exclusive{1.0}}...);
    v("end", InRange{s.end, Exclusive{0.0}, 1.0}...);
    forEachField(v, s.domain...);
}

/**
 * The protection-policy axis of a machine configuration.
 */
struct ProtectionPolicy
{
    ProtectionScopeKind kind = ProtectionScopeKind::Uniform;

    /** The racetrack LLC bank's domain; under AddressRegion, the
     *  fallback for frames outside every region. */
    ProtectionDomain uniform;

    /** AddressRegion entries (a spec may name them only under that
     *  kind). */
    std::vector<ProtectionRegion> regions;

    bool operator==(const ProtectionPolicy &) const = default;
};

/** Spec keys of the `protection` section (util/fields.hh). */
template <class V, FieldsOf<ProtectionPolicy>... S>
void
forEachField(V &&v, S &...s)
{
    v("kind", s.kind...);
    v("uniform", s.uniform...);
    if (v.emitWhen(!s.regions.empty()...))
        v("regions", s.regions...);
}

/**
 * Bank-resolved form of a policy: the base (uniform) domain plus, for
 * AddressRegion policies, the sorted frame ranges. Resolution is a
 * couple of comparisons per access — policies name at most a
 * handful of regions.
 */
struct ResolvedProtection
{
    /** Distinct domains; [0] is the base (uniform) domain. */
    std::vector<ProtectionDomain> domains;

    struct Range
    {
        uint64_t begin = 0; //!< first frame (inclusive)
        uint64_t end = 0;   //!< one past the last frame
        int domain = 0;     //!< index into `domains`
    };
    /**
     * Sorted by begin; gaps fall to domain 0. Regions may not overlap
     * (protectionPolicyErrors), but each snaps down to its own
     * codeword boundary, so
     * a range can still share up to F - 1 frames (its F) with the
     * one before it; the first range holding a frame wins.
     */
    std::vector<Range> ranges;

    int domainIndexFor(uint64_t frame) const
    {
        for (const Range &r : ranges) {
            if (frame < r.begin)
                break;
            if (frame < r.end)
                return r.domain;
        }
        return 0;
    }

    const ProtectionDomain &domainFor(uint64_t frame) const
    {
        return domains[static_cast<size_t>(domainIndexFor(frame))];
    }
};

/**
 * Resolve `policy` against a bank of `line_frames` frames. Region
 * fractions snap to codeword boundaries of their own domain so a
 * codeword never straddles two domains.
 */
ResolvedProtection resolveProtection(const ProtectionPolicy &policy,
                                     uint64_t line_frames);

/** A shape rule of ProtectionPolicy that a policy breaks. */
struct ProtectionPolicyFault
{
    std::string field;  //!< key path under the policy: "regions[1].end"
    std::string reason; //!< why: "must be in (begin, 1]"

    bool operator==(const ProtectionPolicyFault &) const = default;
};

/**
 * Every shape rule `policy` breaks, in key order; empty when none:
 * regions only under kind AddressRegion, each region's end above its
 * begin, and no region overlapping an earlier one (the later one is
 * named, so a frame never has two regions to choose from). The spec
 * reader reports each under `protection.` plus its field; the RmBank
 * constructor ends the program on the first.
 */
std::vector<ProtectionPolicyFault>
protectionPolicyErrors(const ProtectionPolicy &policy);

/**
 * Validate one domain against the bank geometry (delegates to
 * protectionGeometryError on the implied PeccConfig). Empty string
 * when realisable, else a human-readable reason — spec parsing
 * turns it into a dotted-path diagnostic and exit 2.
 */
std::string protectionDomainError(const ProtectionDomain &domain,
                                  Scheme base_scheme, int seg_len,
                                  int frames_per_group);

/**
 * The canned differentiated policy used by the bench and the
 * `rtmsim run --protection differentiated` shortcut: the hot
 * quarter of the frame space keeps the strong per-frame code, the
 * cold three quarters pool `cold_codeword_frames` frames per
 * codeword and read two-tier.
 */
ProtectionPolicy differentiatedPolicy(int cold_codeword_frames);

} // namespace rtm

#endif // RTM_MEM_PROTECTION_HH
