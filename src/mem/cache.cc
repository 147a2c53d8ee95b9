#include "cache.hh"

#include <algorithm>
#include <bit>

#include "util/logging.hh"

namespace rtm
{

namespace
{

bool
isPowerOfTwo(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

int
log2OfPowerOfTwo(uint64_t v)
{
    int s = 0;
    while ((v >> s) != 1)
        ++s;
    return s;
}

} // anonymous namespace

double
CacheStats::missRate() const
{
    uint64_t total = accesses();
    if (total == 0)
        return 0.0;
    return static_cast<double>(misses()) /
           static_cast<double>(total);
}

std::string
cacheGeometryError(uint64_t capacity_bytes, int associativity,
                   int line_bytes)
{
    if (associativity < 1)
        return "cache needs at least one way";
    if (associativity > Cache::kMaxWays)
        return "cache supports at most " +
               std::to_string(Cache::kMaxWays) + " ways, got " +
               std::to_string(associativity);
    if (line_bytes < 1 ||
        !isPowerOfTwo(static_cast<uint64_t>(line_bytes)))
        return "line size must be a power of two, got " +
               std::to_string(line_bytes);
    uint64_t lines = capacity_bytes / static_cast<uint64_t>(line_bytes);
    if (lines == 0 || lines % static_cast<uint64_t>(associativity) != 0)
        return "capacity " + std::to_string(capacity_bytes) +
               " not divisible into " + std::to_string(associativity) +
               "-way sets";
    if (!isPowerOfTwo(lines / static_cast<uint64_t>(associativity)))
        return "set count must be a power of two (capacity " +
               std::to_string(capacity_bytes) + ", " +
               std::to_string(associativity) + " ways)";
    return "";
}

Cache::Cache(uint64_t capacity_bytes, int associativity,
             int line_bytes)
    : capacity_(capacity_bytes), ways_(associativity),
      line_bytes_(line_bytes)
{
    const std::string err =
        cacheGeometryError(capacity_bytes, associativity, line_bytes);
    if (!err.empty())
        rtm_fatal("%s", err.c_str());
    uint64_t lines = capacity_ / static_cast<uint64_t>(line_bytes_);
    sets_ = lines / static_cast<uint64_t>(ways_);
    line_shift_ = log2OfPowerOfTwo(
        static_cast<uint64_t>(line_bytes_));
    tag_shift_ = line_shift_ + log2OfPowerOfTwo(sets_);
    set_mask_ = sets_ - 1;
    top_shift_ = 4 * (ways_ - 1);
    seed_word_ = 0;
    for (int w = 0; w < ways_; ++w)
        seed_word_ |= static_cast<uint64_t>(w) << (4 * w);
    meta_.assign(lines, 0);
    recency_.assign(sets_, seed_word_);
}

int
Cache::findWay(uint64_t base, Addr tag) const
{
    // A valid entry with this tag matches ignoring its dirty bit. A
    // tag is resident in at most one way, so the scan need not stop
    // early: a select per way instead of a data-dependent exit.
    const uint64_t want = (tag << 2) | kValid | kDirty;
    const uint64_t *m = &meta_[base];
    int way = -1;
    for (int w = ways_ - 1; w >= 0; --w)
        way = (m[w] | kDirty) == want ? w : way;
    return way;
}

void
Cache::promote(uint64_t set, uint64_t way)
{
    constexpr uint64_t kOnes = 0x1111111111111111ULL;
    constexpr uint64_t kHighs = 0x8888888888888888ULL;
    const uint64_t word = recency_[set];
    // The lowest zero nibble of word ^ (way in every nibble) is the
    // way's position: the borrow trick can only flag nibbles above
    // the first true zero, and unused nibbles (all zero) lie above
    // every way id.
    const uint64_t x = word ^ (kOnes * way);
    const int shift = std::countr_zero((x - kOnes) & ~x & kHighs) - 3;
    const uint64_t below = word & ((uint64_t{1} << shift) - 1);
    const uint64_t above = (word >> shift) >> 4;
    recency_[set] = below | (above << shift) | (way << top_shift_);
}

bool
Cache::contains(Addr addr) const
{
    uint64_t base = setOf(addr) * static_cast<uint64_t>(ways_);
    return findWay(base, tagOf(addr)) >= 0;
}

CacheAccessResult
Cache::access(Addr addr, bool is_write)
{
    uint64_t set = setOf(addr);
    Addr tag = tagOf(addr);
    uint64_t base = set * static_cast<uint64_t>(ways_);
    CacheAccessResult res;

    if (is_write)
        ++stats_.writes;
    else
        ++stats_.reads;

    const int hit_way = findWay(base, tag);
    if (hit_way >= 0) {
        const auto w = static_cast<uint64_t>(hit_way);
        promote(set, w);
        if (is_write)
            meta_[base + w] |= kDirty;
        res.hit = true;
        res.frame_index = base + w;
        return res;
    }

    if (is_write)
        ++stats_.write_misses;
    else
        ++stats_.read_misses;

    // The victim is the bottom nibble (first invalid way, else LRU);
    // it becomes the most recent.
    const uint64_t word = recency_[set];
    const uint64_t victim = word & 0xF;
    recency_[set] = (word >> 4) | (victim << top_shift_);

    uint64_t vi = base + victim;
    uint64_t vm = meta_[vi];
    if ((vm & kStateMask) == (kValid | kDirty)) {
        res.writeback = true;
        res.victim_addr = lineAddr(vm >> 2, set);
        ++stats_.writebacks;
    }
    meta_[vi] = (tag << 2) | (is_write ? (kValid | kDirty) : kValid);
    res.frame_index = vi;
    return res;
}

void
Cache::flush()
{
    std::fill(meta_.begin(), meta_.end(), 0);
    std::fill(recency_.begin(), recency_.end(), seed_word_);
}

} // namespace rtm
