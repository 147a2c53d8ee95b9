/**
 * @file
 * Set-associative write-back cache with LRU replacement.
 *
 * This is the tag-array substrate of the evaluation's three-level
 * hierarchy (paper Table 4). It models hits, misses, allocations and
 * dirty evictions; timing and energy are layered on top by the
 * hierarchy and LLC models so the same tag logic serves SRAM, STT-RAM
 * and racetrack configurations.
 *
 * The simulator runs millions of accesses per (workload, option)
 * cell, so the lookup path is specialised at construction: line size
 * and set count are powers of two (enforced), so set/tag extraction
 * is a shift and a mask. Each line is one packed word
 * (tag | dirty | valid), so the hit scan walks one compact array —
 * two cache lines per 16-way set — with a select per way instead of
 * a data-dependent early exit.
 *
 * Replacement state is one recency word per set instead of a stamp
 * per line: the set's way ids as 4-bit nibbles ordered from least
 * (bottom nibble) to most recently used. A hit moves its way to the
 * top nibble (a SWAR search finds it); a miss evicts the bottom
 * nibble and rotates it to the top, with no scan and no branch. Every
 * set starts with its ways in order, way 0 at the bottom. Lines are
 * only invalidated by flush(), which restores that order, so a set's
 * invalid ways are always the suffix of its ways sitting in order at
 * the bottom of the word — and "take the bottom nibble" is exactly
 * the classic rule "the first invalid way, else the least recently
 * used". Hence at most 16 ways (enforced). Behaviour (hit/miss,
 * victim selection, fill order, stats) is bit-identical to the
 * straightforward per-line-stamp implementation;
 * tests/sim_golden_test.cc pins that equivalence against a reference
 * copy of the original code.
 */

#ifndef RTM_MEM_CACHE_HH
#define RTM_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "device/organisation.hh"

namespace rtm
{

/** Physical address type. */
using Addr = uint64_t;

/** Result of a cache lookup+allocate. */
struct CacheAccessResult
{
    bool hit = false;
    bool writeback = false;     //!< a dirty victim was evicted
    Addr victim_addr = 0;       //!< line address of the victim
    uint64_t frame_index = 0;   //!< set * assoc + way touched
};

/** Aggregate counters for one cache. */
struct CacheStats
{
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t read_misses = 0;
    uint64_t write_misses = 0;
    uint64_t writebacks = 0;

    uint64_t accesses() const { return reads + writes; }
    uint64_t misses() const { return read_misses + write_misses; }
    double missRate() const;
};

/**
 * Why (capacity_bytes, associativity, line_bytes) is not a valid
 * cache geometry, or "" when it is: 1..Cache::kMaxWays ways, a
 * power-of-two line size, and a power-of-two number of whole sets.
 * The Cache constructor and every configuration reader check it.
 */
std::string cacheGeometryError(uint64_t capacity_bytes,
                               int associativity, int line_bytes);

/**
 * Tag-array model.
 */
class Cache
{
  public:
    /** Ways a set's recency word can order (one nibble each). */
    static constexpr int kMaxWays = 16;

    /**
     * @param capacity_bytes total data capacity
     * @param associativity  ways per set
     * @param line_bytes     line size
     */
    Cache(uint64_t capacity_bytes, int associativity,
          int line_bytes = kLineBytes);

    /**
     * Look up an address; allocate on miss (write-allocate policy).
     */
    CacheAccessResult access(Addr addr, bool is_write);

    /** Invalidate everything (test support). */
    void flush();

    /** True if the line holding addr is currently resident. */
    bool contains(Addr addr) const;

    /** Prefetch the tag words and recency word of addr's set. */
    void prefetch(Addr addr) const
    {
        const uint64_t set = setOf(addr);
        const uint64_t base = set * static_cast<uint64_t>(ways_);
        __builtin_prefetch(&meta_[base]);
        __builtin_prefetch(&meta_[base + static_cast<uint64_t>(ways_) - 1]);
        __builtin_prefetch(&recency_[set]);
    }

    const CacheStats &stats() const { return stats_; }

    uint64_t sets() const { return sets_; }
    /** Address bits below the tag: log2(line bytes * sets). */
    int tagShift() const { return tag_shift_; }
    int ways() const { return ways_; }
    int lineBytes() const { return line_bytes_; }
    uint64_t capacityBytes() const { return capacity_; }

  private:
    /** Low state bits of a packed metadata word. */
    enum : uint64_t { kValid = 1, kDirty = 2, kStateMask = 3 };

    uint64_t capacity_;
    int ways_;
    int line_bytes_;
    uint64_t sets_;
    int line_shift_;     //!< log2(line_bytes)
    int tag_shift_;      //!< log2(line_bytes * sets)
    uint64_t set_mask_;  //!< sets - 1
    int top_shift_;      //!< bit offset of the top nibble: 4 * (ways - 1)
    uint64_t seed_word_; //!< recency word of a flushed set

    // meta_[set * ways + way] = (tag << 2) | dirty | valid: the hit
    // scan touches only this one compact word array (a tag cannot
    // overflow the 62 available bits — tag = addr >> tag_shift with
    // tag_shift >= 6). recency_[set] orders the set's ways (see the
    // file comment).
    std::vector<uint64_t> meta_;
    std::vector<uint64_t> recency_;

    CacheStats stats_;

    uint64_t setOf(Addr addr) const
    {
        return (addr >> line_shift_) & set_mask_;
    }

    Addr tagOf(Addr addr) const { return addr >> tag_shift_; }

    Addr lineAddr(Addr tag, uint64_t set) const
    {
        return ((tag << (tag_shift_ - line_shift_)) | set)
               << line_shift_;
    }

    /** Way holding (set, tag), or -1 when not resident. */
    int findWay(uint64_t base, Addr tag) const;

    /** Move `way` to the most-recent end of `set`'s recency word. */
    void promote(uint64_t set, uint64_t way);
};

} // namespace rtm

#endif // RTM_MEM_CACHE_HH
