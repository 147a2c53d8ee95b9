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
 * ProtectionPolicy maps the machine onto domains — uniformly, per
 * cache level, or per address region — and resolves to the compact
 * per-frame table the racetrack bank consults on its hot path.
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
    PerLevel,      //!< one domain per cache level (l1/l2/llc)
    AddressRegion, //!< domains over fractions of the frame space
};

/** Spec/CLI tokens for the scope kinds. */
constexpr auto
enumTokens(ProtectionScopeKind)
{
    return std::to_array<EnumToken<ProtectionScopeKind>>({
        {ProtectionScopeKind::Uniform, "uniform"},
        {ProtectionScopeKind::PerLevel, "per-level"},
        {ProtectionScopeKind::AddressRegion, "regions"},
    });
}

/** One protection contract. */
struct ProtectionDomain
{
    /**
     * Scheme override for this domain. When set, it replaces the
     * hierarchy's scheme in this domain's reliability
     * classification (and, for the uniform / llc domain, the bank's
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

    /** The paper's per-frame contract: changes nothing. */
    bool isDefault() const
    {
        return !has_scheme && codeword_frames == 1 && !two_tier;
    }

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
 * when it overrides. Levels and regions inline these keys.
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

/** Named per-cache-level entry (kind == PerLevel). */
struct ProtectionLevel
{
    std::string level; //!< "l1" | "l2" | "llc"
    ProtectionDomain domain;

    bool operator==(const ProtectionLevel &) const = default;
};

template <class V, FieldsOf<ProtectionLevel>... S>
void
forEachField(V &&v, S &...s)
{
    v("level", s.level...);
    forEachField(v, s.domain...);
}

/**
 * The protection-policy axis of a machine configuration.
 */
struct ProtectionPolicy
{
    ProtectionScopeKind kind = ProtectionScopeKind::Uniform;

    /** Uniform domain; also the base/fallback for the other kinds. */
    ProtectionDomain uniform;

    /** PerLevel entries. Only "llc" affects the racetrack bank;
     *  l1/l2 entries feed the overhead accounting (tab05). */
    std::vector<ProtectionLevel> levels;

    /** AddressRegion entries (frames outside every region fall back
     *  to `uniform`). */
    std::vector<ProtectionRegion> regions;

    /** Domain governing the racetrack LLC bank. */
    const ProtectionDomain &llcDomain() const;

    /** True for the paper's configuration (no-op everywhere). */
    bool isDefault() const;

    bool operator==(const ProtectionPolicy &) const = default;
};

/** Spec keys of the `protection` section (util/fields.hh). */
template <class V, FieldsOf<ProtectionPolicy>... S>
void
forEachField(V &&v, S &...s)
{
    v("kind", s.kind...);
    v("uniform", s.uniform...);
    if (v.emitWhen(!s.levels.empty()...))
        v("levels", s.levels...);
    if (v.emitWhen(!s.regions.empty()...))
        v("regions", s.regions...);
}

inline const char *
protectionKindToken(ProtectionScopeKind kind)
{
    return enumToken(kind);
}

/** Inverse of protectionKindToken; false on an unknown token. */
inline bool
protectionKindFromToken(const std::string &token,
                        ProtectionScopeKind *out)
{
    return enumFromToken(token, out);
}

/**
 * Bank-resolved form of a policy: the base (llc) domain plus, for
 * AddressRegion policies, the sorted frame ranges. Resolution is a
 * couple of comparisons per access — policies name at most a
 * handful of regions.
 */
struct ResolvedProtection
{
    /** Distinct domains; [0] is the base (llc / uniform) domain. */
    std::vector<ProtectionDomain> domains;

    struct Range
    {
        uint64_t begin = 0; //!< first frame (inclusive)
        uint64_t end = 0;   //!< one past the last frame
        int domain = 0;     //!< index into `domains`
    };
    /** Non-overlapping, sorted by begin; gaps fall to domain 0. */
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

    /** Every domain is the paper's default contract. */
    bool isDefault() const;
};

/**
 * Resolve `policy` against a bank of `line_frames` frames. Region
 * fractions snap to codeword boundaries of their own domain so a
 * codeword never straddles two domains.
 */
ResolvedProtection resolveProtection(const ProtectionPolicy &policy,
                                     uint64_t line_frames);

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
