/**
 * @file
 * Set-associative cache model with exact-LRU replacement.
 *
 * This is a functional tag-array model: it tracks which lines are
 * resident and reports hit/miss per access.  The Meltdown case study
 * depends on its exact semantics (CLFLUSH invalidation + reload
 * timing), so every line-granular operation is modeled explicitly.
 *
 * A way's tag is its full line address (addr >> log2(lineSize)),
 * which is unique within a set, so no lookup divides: the set index
 * is a mask when the set count is a power of two and a modulo only
 * otherwise.  The cache is one array of numSets * ways tags; an
 * empty way holds a tag no line address can equal.
 *
 * Each set is kept in recency order: way 0 holds the most recently
 * used line, the valid lines form a prefix and the empty ways the
 * tail.  A hit moves its line to way 0; a miss evicts the last way
 * (if valid) and puts the new line at way 0.  Every observable
 * result depends only on each set's recency order and its count of
 * empty ways, never on which way holds a line, so no per-way state
 * beyond the tag is needed.  Both machine presets (i7-920, Xeon
 * 8259CL) are modeled with LRU at every level.
 *
 * A cache of at most 16 ways also has batch lookups for hosts with
 * AVX-512F (accessLaneAvx512(), probeLaneAvx512()), which look up a
 * whole lane of addresses in order and move its misses to the front:
 * a set is at most two 8-lane blocks of tags, so one compare finds
 * the hit way and one store of the set shifted by a lane does the
 * move to front.  They give the same results, stats and tags as
 * access() and contains(), which stay the only lookup on other hosts.
 */

#ifndef KLEBSIM_HW_CACHE_HH
#define KLEBSIM_HW_CACHE_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "base/thread_safety.hh"
#include "base/types.hh"

namespace klebsim::hw
{

/** Geometry of one cache level. */
struct CacheGeometry
{
    std::uint64_t sizeBytes = 0;
    std::uint32_t ways = 1;
    std::uint32_t lineSize = 64;

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
     */
    Cache(std::string name, const CacheGeometry &geom);

    const std::string &name() const { return name_; }
    const CacheGeometry &geometry() const { return geom_; }
    const CacheStats &stats() const { return stats_; }

    /**
     * Look up @p addr; on miss, allocate the line (evicting if the
     * set is full).  Loads and stores look alike: no dirty state is
     * modelled, and a store allocates as a load does.
     * @return true on hit.
     */
    KLEB_HOT bool
    access(Addr addr)
    {
        const Addr line = addr >> lineShift_;
        Addr *tags = &tags_[setOf(line) * ways_];
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (tags[w] == line) {
                ++stats_.hits;
                moveToFront(tags, w, line);
                return true;
            }
        }

        ++stats_.misses;
        // The last way is the LRU line, or empty if the set has room.
        stats_.evictions += tags[ways_ - 1] != emptyTag;
        moveToFront(tags, ways_ - 1, line);
        return false;
    }

    /** Residency probe without side effects (no fill, no LRU touch). */
    bool
    contains(Addr addr) const
    {
        const Addr line = addr >> lineShift_;
        const Addr *tags = &tags_[setOf(line) * ways_];
        for (std::uint32_t w = 0; w < ways_; ++w)
            if (tags[w] == line)
                return true;
        return false;
    }

    /** Most ways a cache may have for the vector lookups. */
    static constexpr std::uint32_t vectorMaxWays = 16;

#if defined(__x86_64__)
    /**
     * access() each of the @p n addresses of @p lane in order, for a
     * cache of at most vectorMaxWays ways on a host with AVX-512F:
     * the same results, stats and tags.  The addresses that missed
     * are moved, in order, to the front of the lane; the rest of the
     * lane is left unspecified.
     * @return the number of misses
     */
    [[gnu::target("avx512f")]] std::size_t
    accessLaneAvx512(Addr *lane, std::size_t n);

    /**
     * contains() for each of the @p n addresses of @p lane, as
     * accessLaneAvx512() serves access(): the addresses not resident
     * are moved, in order, to the front of the lane.
     * @return their number
     */
    [[gnu::target("avx512f")]] std::size_t
    probeLaneAvx512(Addr *lane, std::size_t n) const;
#endif

    /**
     * True when @p other has the same geometry and every set holds
     * the same lines in the same recency order.  Stats and names are
     * not compared.
     */
    bool sameContents(const Cache &other) const;

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

#if defined(__x86_64__)
    /**
     * The body of accessLaneAvx512() for sets of @p Blocks whole
     * 8-lane blocks (1 or 2), which it loads and stores at full
     * width, or for sets of any width under lane masks (0).
     */
    template <unsigned Blocks>
    [[gnu::target("avx512f")]] std::size_t
    accessLane(Addr *lane, std::size_t n);
#endif

    /**
     * Drop way @p way of a set, shift the ways before it down by one
     * and put @p line at way 0.
     */
    static void
    moveToFront(Addr *tags, std::uint32_t way, Addr line)
    {
        std::copy_backward(tags, tags + way, tags + way + 1);
        tags[0] = line;
    }

    unsigned lineShift_ = 0;
    bool pow2Sets_ = false;
    std::uint32_t ways_ = 0;
    std::uint64_t numSets_ = 0;
    std::vector<Addr> tags_; //!< numSets_ * ways_, set by set
    CacheStats stats_;

    CacheGeometry geom_;
    std::string name_;
};

} // namespace klebsim::hw

#endif // KLEBSIM_HW_CACHE_HH
