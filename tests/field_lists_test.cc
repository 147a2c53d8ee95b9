/**
 * @file
 * Seeded round-trip property over every field list (util/fields.hh):
 * an object filled with random values through its own list must
 * survive emit -> load -> == and re-emit byte-identically. Specs go
 * through experimentSpecToJson / experimentSpecFromJson (hand-parsed
 * keys and semantic checks included); results and ledgers through
 * their checkpoint loaders. The draws cover an infinite MTTF (null)
 * and the redundancy pair both absent (zero) and present; a bounded
 * (InRange) field is drawn from its declared range, and a walk over
 * the lists checks each range's ends.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <string>

#include "sim/experiment.hh"
#include "util/journal.hh"

namespace rtm
{
namespace
{

/** Visitor assigning seeded random values to every listed field. */
class RandomFill
{
  public:
    /** `zeros`: integers are 0 a third of the time (results only —
     *  specs reject zero counts). */
    RandomFill(uint64_t seed, bool zeros) : rng_(seed), zeros_(zeros)
    {
    }

    template <class T>
    void operator()(const char *key, T &value)
    {
        const std::string k = key;
        if constexpr (std::is_same_v<T, bool>) {
            value = pick(2) == 1;
        } else if constexpr (std::is_same_v<T, int>) {
            value = k == "codeword_frames" ? 1 << pick(4)
                                           : 2 + static_cast<int>(
                                                     pick(1000));
        } else if constexpr (std::is_unsigned_v<T>) {
            value = zeros_ && pick(3) == 0 ? 0 : 1 + pick(1ull << 53);
        } else if constexpr (std::is_same_v<T, double>) {
            value = unit() * std::pow(10.0, pick(12));
        } else if constexpr (std::is_same_v<T, std::string>) {
            value = word(k);
        } else if constexpr (std::is_enum_v<T>) {
            const auto rows = enumTokens(value);
            value = rows[pick(rows.size())].value;
        } else if constexpr (std::is_same_v<T, RunningStats>) {
            value = RunningStats();
            for (uint64_t i = pick(4); i > 0; --i)
                value.add(static_cast<double>(pick(1000)) / 7.0);
        } else if constexpr (std::is_same_v<T, IntTally>) {
            value = IntTally();
            for (uint64_t i = pick(4); i > 0; --i)
                value.add(static_cast<int64_t>(pick(64)) - 32,
                          1 + pick(1000));
        } else {
            forEachField(*this, value);
        }
    }
    template <class T>
    void operator()(const char *key, std::vector<T> &items)
    {
        items.resize(1 + pick(3));
        for (T &item : items)
            (*this)(key, item);
    }
    template <class T>
    void operator()(const char *, EmitOnly<T>)
    {
    }
    template <class D>
    void operator()(const char *key, NullIfInf<D> f)
    {
        if (pick(3) == 0)
            f.value = std::numeric_limits<double>::infinity();
        else
            (*this)(key, f.value);
    }
    template <class B, class T>
    void operator()(const char *key, PresentIf<B, T> f)
    {
        f.flag = pick(2) == 1;
        if (f.flag)
            (*this)(key, f.value);
    }
    template <class T>
    void operator()(const char *key, HandParsed<T> f)
    {
        (*this)(key, f.value);
    }
    /** A draw strictly inside a real range; an integer one (integer
     *  ranges are bounded below only) from its lowest value up. */
    template <class T>
    void operator()(const char *, InRange<T> f)
    {
        if constexpr (std::is_floating_point_v<T>) {
            const T span = f.hi.bound == f.kUnbounded
                               ? std::pow(10.0, pick(12))
                               : f.hi.bound - f.lo.bound;
            f.value = f.lo.bound + unit() * span;
        } else {
            const uint64_t span =
                std::is_same_v<T, int> ? 1000 : uint64_t{1} << 53;
            f.value = f.lo.bound + f.lo.open + static_cast<T>(pick(span));
        }
    }
    template <class F>
    void operator()(const char *, SubObject<F> sub)
    {
        sub.fn(*this);
    }
    bool emitWhen(bool) { return true; }

  private:
    uint64_t pick(uint64_t n) { return rng_() % n; }

    /** Uniform in (0, 1). */
    double unit()
    {
        return std::uniform_real_distribution<>(
            std::numeric_limits<double>::min(), 1.0)(rng_);
    }

    /** Strings the spec checks constrain come from their domain. */
    std::string word(const std::string &key)
    {
        std::vector<std::string> pool;
        if (key == "workloads")
            for (const WorkloadProfile &p : parsecProfiles())
                pool.push_back(p.name);
        else if (key == "scheme")
            pool = {"baseline", "sed", "pecc-o", "secded", "lm-pos",
                    "del-ins-k"};
        else if (key == "tier")
            pool = {"exact", "fast"};
        else if (key == "level")
            pool = {"l1", "l2", "llc"};
        if (!pool.empty())
            return pool[pick(pool.size())];
        return "w" + std::to_string(pick(1000000)) + " \"q\"\n";
    }

    std::mt19937_64 rng_;
    bool zeros_;
};

template <class T>
T
randomFilled(uint64_t seed, bool zeros)
{
    RandomFill fill(seed, zeros);
    T obj;
    forEachField(fill, obj);
    return obj;
}

/** emit -> fromJson -> == and emit -> load -> emit byte-identity. */
template <class T>
void
expectRoundTrip(const T &obj, uint64_t seed)
{
    const JsonValue doc = toJson(obj);
    T back;
    ASSERT_TRUE(fromJson(doc, &back)) << seed << ": " << doc.dump(0);
    EXPECT_TRUE(back == obj) << seed << ": " << doc.dump(0);
    EXPECT_EQ(toJson(back).dump(0), doc.dump(0)) << seed;
}

constexpr uint64_t kSeeds = 200;

TEST(FieldLists, RandomSpecsRoundTrip)
{
    const HierarchyConfig geometry;
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
        ExperimentSpec spec = randomFilled<ExperimentSpec>(seed, false);
        // Pooled geometry the default hierarchy cannot realise is a
        // (tested) diagnostic; keep the draw inside the valid set.
        auto realisable = [&](ProtectionDomain &d) {
            auto bad = [&] {
                return !protectionDomainError(d, Scheme::PeccSAdaptive,
                                              geometry.seg_len,
                                              geometry.frames_per_group)
                            .empty();
            };
            if (bad())
                d.codeword_frames = 1;
            if (bad())
                d.two_tier = false;
            if (bad())
                d = ProtectionDomain{};
        };
        // Likewise a capacity divisor that breaks the cache geometry
        // (hierarchyGeometryError): draw a power of two in [1, 32],
        // the divisors every LLC option survives.
        spec.matrix.divisor = uint64_t{1} << (spec.matrix.divisor % 6);
        // Trace paths must name readable trace files, which random
        // words do not (the trace-row tests cover the key).
        spec.matrix.traces.clear();
        // And the rules across fields a spec refuses because a
        // worker would abort on them: a scenario longer than its
        // period, a campaign stripe the layout rejects, a stress
        // stripe too short for its scheme.
        for (ScenarioSpec &s : spec.campaign.scenarios) {
            s.burst_len = std::min(s.burst_len, s.burst_period);
            s.droop_len = std::min(s.droop_len, s.droop_period);
        }
        PeccConfig &pecc = spec.campaign.config.pecc;
        if (!protectionGeometryError(pecc, 0).empty())
            pecc.correct = 1;
        if (!protectionGeometryError(pecc, 0).empty())
            pecc.variant = PeccVariant::Standard;
        Scheme stress;
        ASSERT_TRUE(schemeFromToken(spec.stress.scheme, &stress));
        if (!protectionGeometryError(
                 peccConfigFor(stress, 2, spec.stress.lseg), 0)
                 .empty())
            spec.stress.lseg = 8;
        realisable(spec.protection.uniform);
        for (ProtectionLevel &l : spec.protection.levels)
            realisable(l.domain);
        for (ProtectionRegion &g : spec.protection.regions) {
            if (g.end <= g.begin)
                g.end = 1.0;
            realisable(g.domain);
        }

        const JsonValue doc = experimentSpecToJson(spec);
        ExperimentSpec back;
        std::string diag;
        ASSERT_TRUE(experimentSpecFromJson(doc, &back, &diag))
            << seed << ": " << diag;
        EXPECT_TRUE(back == spec) << seed << ": " << doc.dump(0);
        EXPECT_EQ(experimentSpecToJson(back).dump(0), doc.dump(0))
            << seed;
    }
}

/**
 * Walks a spec's field lists and calls `at(path, bound)` on each
 * InRange field, `path` dotted as diagnostics give it. An array is
 * entered at its first item.
 */
template <class F>
struct BoundWalk
{
    F at;
    std::string path;

    std::string join(const std::string &key) const
    {
        return path.empty() ? key : path + "." + key;
    }

    template <class T>
    void operator()(const char *key, T &value)
    {
        if constexpr (HasFields<T>)
            forEachField(BoundWalk{at, join(key)}, value);
    }
    template <class T>
    void operator()(const char *key, std::vector<T> &items)
    {
        if constexpr (HasFields<T>)
            if (!items.empty())
                forEachField(BoundWalk{at, join(key) + "[0]"}, items[0]);
    }
    template <class T>
    void operator()(const char *key, InRange<T> f)
    {
        at(join(key), f);
    }
    template <class T>
    void operator()(const char *key, HandParsed<T> f)
    {
        (*this)(key, f.value);
    }
    template <class B, class T>
    void operator()(const char *key, PresentIf<B, T> f)
    {
        (*this)(key, f.value);
    }
    template <class G>
    void operator()(const char *key, SubObject<G> sub)
    {
        BoundWalk walk{at, join(key)};
        sub.fn(walk);
    }
    template <class T>
    void operator()(const char *, EmitOnly<T>)
    {
    }
    template <class D>
    void operator()(const char *, NullIfInf<D>)
    {
    }
    bool emitWhen(bool) { return true; }
};

/** The value one step from `v` towards `to`. */
template <class T>
T
step(T v, T to)
{
    if constexpr (std::is_floating_point_v<T>)
        return std::nextafter(v, to);
    else
        return to > v ? v + 1 : v - 1;
}

/** The last value inside, or the first outside, an end of a range. */
enum class Probe
{
    LowIn,
    LowOut,
    HighIn,
    HighOut
};

/** Probe `p`'s value for `f`; false when there is none (an unbounded
 *  end, or no value of T beyond it). */
template <class T>
bool
probeValue(const InRange<T> &f, Probe p, T *out)
{
    const bool low = p == Probe::LowIn || p == Probe::LowOut;
    const bool inside = p == Probe::LowIn || p == Probe::HighIn;
    const auto &end = low ? f.lo : f.hi;
    const T beyond = low ? std::numeric_limits<T>::lowest()
                         : std::numeric_limits<T>::max();
    if (end.bound == f.kUnbounded || end.bound == beyond)
        return false;
    if (inside != end.open)
        *out = end.bound;
    else
        *out = step(end.bound, !inside ? beyond
                               : low   ? f.hi.bound
                                       : f.lo.bound);
    return true;
}

/**
 * Every bounded field accepts the last value inside each finite end
 * of its range and refuses the first value outside it, naming its
 * dotted path. The base spec enters every array the lists hold
 * bounds in (an option, a scenario, a region) and keeps the rules
 * across fields satisfied at every bound.
 */
TEST(FieldLists, BoundedFieldsRejectOutOfRange)
{
    ExperimentSpec base;
    ScenarioSpec scenario;
    scenario.burst_len = 0;
    scenario.droop_len = 0;
    base.campaign.scenarios = {scenario};
    base.protection.kind = ProtectionScopeKind::AddressRegion;
    base.protection.regions = {ProtectionRegion{}};
    normalizeExperimentSpec(&base);

    // Sets the field-th bounded field of *spec to probe p's value and
    // returns its path, or "-" when the probe has no value.
    auto probe = [](size_t field, Probe p, ExperimentSpec *spec) {
        size_t seen = 0;
        std::string path;
        BoundWalk walk{[&](const std::string &at, auto f) {
                           if (seen++ == field)
                               path = probeValue(f, p, &f.value) ? at
                                                                 : "-";
                       },
                       std::string()};
        forEachField(walk, *spec);
        return path;
    };

    size_t bounded = 0;
    BoundWalk count{[&](const std::string &, auto) { ++bounded; },
                    std::string()};
    forEachField(count, base);
    // The walk reaches the nested objects and arrays too.
    EXPECT_GE(bounded, 18u);
    for (size_t field = 0; field < bounded; ++field) {
        for (Probe p : {Probe::LowIn, Probe::LowOut, Probe::HighIn,
                        Probe::HighOut}) {
            ExperimentSpec spec = base;
            const std::string path = probe(field, p, &spec);
            if (path == "-")
                continue;
            ExperimentSpec back;
            std::string diag;
            const bool ok = experimentSpecFromJson(
                experimentSpecToJson(spec), &back, &diag);
            const int at = static_cast<int>(p);
            if (p == Probe::LowIn || p == Probe::HighIn) {
                EXPECT_TRUE(ok) << path << " probe " << at << ": " << diag;
                EXPECT_TRUE(back == spec) << path << " probe " << at;
            } else {
                EXPECT_FALSE(ok) << path << " probe " << at;
                EXPECT_NE(diag.find(path + ": must be "),
                          std::string::npos)
                    << path << " probe " << at << ": " << diag;
            }
        }
    }
}

TEST(FieldLists, RandomResultsAndLedgersRoundTrip)
{
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
        expectRoundTrip(randomFilled<CampaignCellResult>(seed, true),
                        seed);
        expectRoundTrip(randomFilled<CampaignLedger>(seed, true),
                        seed);
        expectRoundTrip(randomFilled<StressResult>(seed, true), seed);
        expectRoundTrip(randomFilled<McRunResult>(seed, true), seed);
        expectRoundTrip(randomFilled<JournalHeader>(seed, true),
                        seed);
    }
}

TEST(FieldLists, RandomMatrixCellsRoundTrip)
{
    size_t inf_mttf = 0, redundancy[2] = {0, 0};
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
        const SimResult r = randomFilled<SimResult>(seed, true);
        const LlcOption opt{"label " + std::to_string(seed),
                            r.llc_tech, r.scheme};
        const JsonValue doc = simResultToJson(r.workload, opt, r);
        SimResult back;
        ASSERT_TRUE(simResultFromJson(doc, &back)) << doc.dump(0);
        EXPECT_TRUE(back == r) << seed << ": " << doc.dump(0);
        EXPECT_EQ(simResultToJson(back.workload, opt, back).dump(0),
                  doc.dump(0));
        inf_mttf += doc.find("sdc_mttf")->isNull();
        ++redundancy[doc.find("redundancy_steps") != nullptr];
    }
    // The draws exercised both sides of each emission rule.
    EXPECT_GT(inf_mttf, 0u);
    EXPECT_GT(redundancy[0], 0u);
    EXPECT_GT(redundancy[1], 0u);
}

TEST(FieldLists, MistypedOrUnknownCheckpointFieldsAreRejected)
{
    const CampaignCellResult cell =
        randomFilled<CampaignCellResult>(1, false);
    JsonValue doc = toJson(cell);
    CampaignCellResult back;
    ASSERT_TRUE(fromJson(doc, &back));

    JsonValue mistyped = doc;
    JsonValue ledger = *doc.find("ledger");
    ledger.set("due", "x");
    mistyped.set("ledger", ledger);
    EXPECT_FALSE(fromJson(mistyped, &back));

    JsonValue negative = doc;
    negative.set("bank_due_reports", -1);
    EXPECT_FALSE(fromJson(negative, &back));

    JsonValue unknown = doc;
    unknown.set("bogus", 1);
    EXPECT_FALSE(fromJson(unknown, &back));
    EXPECT_TRUE(back == cell); // failed loads leave *out untouched
}

} // anonymous namespace
} // namespace rtm
