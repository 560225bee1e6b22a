/**
 * @file
 * Set-associative cache model with pluggable replacement policy.
 *
 * This is a functional tag-array model: it tracks which lines are
 * resident and reports hit/miss per access.  The Meltdown case study
 * depends on its exact semantics (CLFLUSH invalidation + reload
 * timing), so every line-granular operation is modeled explicitly.
 *
 * A way's tag is its full line address (addr >> log2(lineSize)),
 * which is unique within a set, so no lookup divides: the set index
 * is a mask when the set count is a power of two and a modulo only
 * otherwise.  Each set owns one stretch of a single per-cache block:
 * its ways' tags, then (exact LRU only) their last-touch stamps.  An
 * empty way holds a tag no line address can equal.  A miss fills
 * the lowest empty way first; in a full set the LRU victim is the
 * smallest stamp.
 */

#ifndef KLEBSIM_HW_CACHE_HH
#define KLEBSIM_HW_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/random.hh"
#include "base/thread_safety.hh"
#include "base/types.hh"

namespace klebsim::hw
{

/** Replacement policy selector. */
enum class ReplPolicy
{
    lru,
    random,
    treePlru,
};

/** Geometry of one cache level. */
struct CacheGeometry
{
    std::uint64_t sizeBytes = 0;
    std::uint32_t ways = 1;
    std::uint32_t lineSize = 64;
    ReplPolicy policy = ReplPolicy::lru;

    /** Number of sets implied by the geometry. */
    std::uint64_t
    sets() const
    {
        return sizeBytes / (static_cast<std::uint64_t>(ways) *
                            lineSize);
    }
};

/** Cumulative access statistics for one cache. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t flushes = 0;

    std::uint64_t accesses() const { return hits + misses; }

    double
    missRate() const
    {
        std::uint64_t a = accesses();
        return a ? static_cast<double>(misses) /
                       static_cast<double>(a)
                 : 0.0;
    }
};

/**
 * One level of cache.
 */
class Cache
{
  public:
    /**
     * @param name for diagnostics ("L1D", "LLC", ...)
     * @param geom geometry; size must be divisible by ways*lineSize
     *        and the line size a power of two of at least 2 bytes
     * @param rng source for the random replacement policy
     */
    Cache(std::string name, const CacheGeometry &geom, Random rng);

    const std::string &name() const { return name_; }
    const CacheGeometry &geometry() const { return geom_; }
    const CacheStats &stats() const { return stats_; }

    /**
     * Look up @p addr; on miss, allocate the line (evicting if the
     * set is full).
     * @return true on hit.
     */
    KLEB_HOT bool
    access(Addr addr, bool write)
    {
        (void)write; // no dirty-state modeling; writes allocate like reads
        const Addr line = addr >> lineShift_;
        const std::uint64_t set = setOf(line);
        Addr *tags = &block_[set * stride_];
        std::uint32_t way = ways_;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (tags[w] == line) {
                ++stats_.hits;
                touch(tags, set, w);
                return true;
            }
            if (tags[w] == emptyTag && way == ways_)
                way = w;
        }

        ++stats_.misses;
        if (way == ways_) {
            way = victimWay(tags, set);
            ++stats_.evictions;
        }
        tags[way] = line;
        touch(tags, set, way);
        return false;
    }

    /** Residency probe without side effects (no fill, no LRU touch). */
    bool
    contains(Addr addr) const
    {
        const Addr line = addr >> lineShift_;
        const Addr *tags = &block_[setOf(line) * stride_];
        for (std::uint32_t w = 0; w < ways_; ++w)
            if (tags[w] == line)
                return true;
        return false;
    }

    /**
     * Invalidate the line containing @p addr (CLFLUSH semantics).
     * @return true if the line was resident.
     */
    bool flushLine(Addr addr);

    /** Invalidate everything (WBINVD semantics). */
    void flushAll();

    /** Reset statistics only; contents are untouched. */
    void resetStats();

    /** Number of valid lines currently resident. */
    std::uint64_t residentLines() const;

  private:
    /**
     * Tag of an empty way.  Line addresses are at most
     * 2^63 - 1 because the line size is at least 2.
     */
    static constexpr Addr emptyTag = ~Addr(0);

    std::uint64_t
    setOf(Addr line) const
    {
        return pow2Sets_ ? (line & (numSets_ - 1)) : line % numSets_;
    }

    /** Record a hit or fill of @p way in the set at @p tags. */
    void
    touch(Addr *tags, std::uint64_t set, std::uint32_t way)
    {
        if (geom_.policy == ReplPolicy::lru)
            tags[ways_ + way] = ++lastStamp_;
        else if (geom_.policy == ReplPolicy::treePlru)
            touchPlru(set, way);
    }

    /** Point the set's PLRU tree away from @p way. */
    void touchPlru(std::uint64_t set, std::uint32_t way);

    /** Way to evict from the full set at @p tags (policy-dependent). */
    std::uint32_t victimWay(const Addr *tags, std::uint64_t set);

    unsigned lineShift_ = 0;
    bool pow2Sets_ = false;
    std::uint32_t ways_ = 0;
    std::uint32_t stride_ = 0; //!< block words per set
    std::uint64_t numSets_ = 0;

    /**
     * numSets_ * stride_ words, one allocation: per set, ways_ tags
     * then (lru only) ways_ touch stamps.
     */
    std::vector<Addr> block_;
    std::uint64_t lastStamp_ = 0;
    CacheStats stats_;

    CacheGeometry geom_;
    std::vector<std::uint8_t> plru_; //!< tree bits per set
    Random rng_;
    std::string name_;
};

} // namespace klebsim::hw

#endif // KLEBSIM_HW_CACHE_HH
