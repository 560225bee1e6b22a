#include "cache.hh"

#include <algorithm>
#include <bit>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "base/intmath.hh"
#include "base/logging.hh"

namespace klebsim::hw
{

Cache::Cache(std::string name, const CacheGeometry &geom)
    : geom_(geom), name_(std::move(name))
{
    fatal_if(geom.lineSize < 2 || !isPowerOf2(geom.lineSize),
             "cache ", name_,
             ": line size must be a power of two >= 2");
    fatal_if(geom.ways == 0, "cache ", name_, ": needs >= 1 way");
    numSets_ = geom.sets();
    fatal_if(numSets_ == 0 ||
                 numSets_ * geom.ways * geom.lineSize !=
                     geom.sizeBytes,
             "cache ", name_,
             ": size must be sets * ways * lineSize");
    lineShift_ = static_cast<unsigned>(std::countr_zero(geom.lineSize));
    pow2Sets_ = isPowerOf2(numSets_);
    ways_ = geom.ways;
    tags_.assign(numSets_ * ways_, emptyTag);
}

#if defined(__x86_64__)

// The lane bodies are 64-byte aligned, as are the walk bodies that
// call them (mem_hierarchy.cc).  Each keeps the tag array, the set
// geometry and its counts in locals, so that its stores into the
// lane, which the compiler cannot tell apart from the members, do not
// make it reload them, and adds the counts to stats_ once per lane.
// A lookup is branch-free: the last way's bit ORed into the hit mask
// makes a miss take the last way, and the lane keeps a missed
// address by advancing its write index.  The write index never
// passes the read index, so an address is read before its slot is
// overwritten.

[[gnu::target("avx512f"), gnu::aligned(64)]] std::size_t
Cache::accessLaneAvx512(Addr *lane, std::size_t n)
{
    // Sets that are whole 8-lane blocks are loaded and stored at full
    // width: a later lookup of the same set then reads its tags
    // through store forwarding, which a masked store does not allow.
    if (ways_ == 8)
        return accessLane<1>(lane, n);
    if (ways_ == 16)
        return accessLane<2>(lane, n);
    return accessLane<0>(lane, n);
}

template <unsigned Blocks>
[[gnu::target("avx512f"), gnu::aligned(64)]] std::size_t
Cache::accessLane(Addr *lane, std::size_t n)
{
    Addr *const tags = tags_.data();
    const unsigned shift = lineShift_;
    const std::uint32_t ways = ways_;
    const std::uint64_t sets = numSets_;
    const bool pow2 = pow2Sets_;
    // Ways [0, 8) and [8, ways) as two blocks.  Under masks, lanes
    // past the last way load as 0, which line 0 would match, so the
    // compares are masked too, and a set of at most 8 ways reads its
    // masked-off second block at the set itself, so that no pointer
    // past the tag array is formed.
    const unsigned valid = (1u << ways) - 1;
    const auto lo = static_cast<__mmask8>(valid);
    const auto hi = static_cast<__mmask8>(valid >> 8);
    const std::uint32_t upper = ways > 8 ? 8 : 0;
    const unsigned lastWay = 1u << (ways - 1);
    const __m512i empty =
        _mm512_set1_epi64(static_cast<long long>(emptyTag));
    std::size_t misses = 0, evictions = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const Addr addr = lane[i];
        const Addr line = addr >> shift;
        Addr *set =
            tags + (pow2 ? line & (sets - 1) : line % sets) * ways;
        const __m512i lineVec =
            _mm512_set1_epi64(static_cast<long long>(line));
        // t1 stays lineVec for one block; its shift below is unused.
        __m512i t0 = lineVec, t1 = lineVec;
        unsigned hits = 0, full = 0;
        if constexpr (Blocks == 0) {
            t0 = _mm512_maskz_loadu_epi64(lo, set);
            t1 = _mm512_maskz_loadu_epi64(hi, set + upper);
            hits = _mm512_mask_cmpeq_epi64_mask(lo, t0, lineVec) |
                   unsigned(_mm512_mask_cmpeq_epi64_mask(hi, t1, lineVec))
                       << 8;
            full = _mm512_mask_cmpneq_epi64_mask(
                       static_cast<__mmask8>(lastWay), t0, empty) |
                   _mm512_mask_cmpneq_epi64_mask(
                       static_cast<__mmask8>(lastWay >> 8), t1, empty);
        } else {
            t0 = _mm512_loadu_si512(set);
            hits = _mm512_cmpeq_epi64_mask(t0, lineVec);
            if constexpr (Blocks == 2) {
                t1 = _mm512_loadu_si512(set + 8);
                hits |= unsigned(_mm512_cmpeq_epi64_mask(t1, lineVec))
                        << 8;
            }
            full = _mm512_mask_cmpneq_epi64_mask(
                0x80, Blocks == 2 ? t1 : t0, empty);
        }
        const unsigned way =
            static_cast<unsigned>(__builtin_ctz(hits | lastWay));
        const std::size_t miss = hits == 0;
        evictions += miss & (full != 0);

        // moveToFront(set, way, line): each block shifted up by one
        // lane, the line entering the first and the first's last lane
        // entering the second, into ways [0, way] only.  The all-lanes
        // maskz form of alignr reads no undefined vector.  A whole
        // block is stored at full width, blended with its old tags
        // past the way.
        const unsigned moved = (2u << way) - 1;
        const auto m0 = static_cast<__mmask8>(moved);
        const auto m1 = static_cast<__mmask8>(moved >> 8);
        const __m512i s0 = _mm512_maskz_alignr_epi64(0xFF, t0, lineVec, 7);
        const __m512i s1 = _mm512_maskz_alignr_epi64(0xFF, t1, t0, 7);
        if constexpr (Blocks == 0) {
            _mm512_mask_storeu_epi64(set, m0, s0);
            _mm512_mask_storeu_epi64(set + upper, m1, s1);
        } else {
            _mm512_storeu_si512(set, _mm512_mask_blend_epi64(m0, t0, s0));
            if constexpr (Blocks == 2)
                _mm512_storeu_si512(set + 8,
                                    _mm512_mask_blend_epi64(m1, t1, s1));
        }

        lane[misses] = addr;
        misses += miss;
    }
    stats_.hits += n - misses;
    stats_.misses += misses;
    stats_.evictions += evictions;
    return misses;
}

[[gnu::target("avx512f"), gnu::aligned(64)]] std::size_t
Cache::probeLaneAvx512(Addr *lane, std::size_t n) const
{
    const Addr *const tags = tags_.data();
    const unsigned shift = lineShift_;
    const std::uint32_t ways = ways_;
    const std::uint64_t sets = numSets_;
    const bool pow2 = pow2Sets_;
    const unsigned valid = (1u << ways) - 1;
    const auto lo = static_cast<__mmask8>(valid);
    const auto hi = static_cast<__mmask8>(valid >> 8);
    const std::uint32_t upper = ways > 8 ? 8 : 0;
    std::size_t absent = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const Addr addr = lane[i];
        const Addr line = addr >> shift;
        const Addr *set =
            tags + (pow2 ? line & (sets - 1) : line % sets) * ways;
        const __m512i lineVec =
            _mm512_set1_epi64(static_cast<long long>(line));
        const unsigned hits =
            _mm512_mask_cmpeq_epi64_mask(
                lo, _mm512_maskz_loadu_epi64(lo, set), lineVec) |
            _mm512_mask_cmpeq_epi64_mask(
                hi, _mm512_maskz_loadu_epi64(hi, set + upper), lineVec);
        lane[absent] = addr;
        absent += hits == 0;
    }
    return absent;
}

#endif

bool
Cache::sameContents(const Cache &other) const
{
    return geom_.sizeBytes == other.geom_.sizeBytes &&
           geom_.ways == other.geom_.ways &&
           geom_.lineSize == other.geom_.lineSize &&
           tags_ == other.tags_;
}

bool
Cache::flushLine(Addr addr)
{
    ++stats_.flushes;
    const Addr line = addr >> lineShift_;
    Addr *tags = &tags_[setOf(line) * ways_];
    Addr *end = tags + ways_;
    Addr *way = std::find(tags, end, line);
    if (way == end)
        return false;
    // Close the gap so the empty ways stay at the tail.
    std::copy(way + 1, end, way);
    end[-1] = emptyTag;
    return true;
}

void
Cache::flushAll()
{
    std::fill(tags_.begin(), tags_.end(), emptyTag);
}

void
Cache::resetStats()
{
    stats_ = CacheStats{};
}

std::uint64_t
Cache::residentLines() const
{
    return tags_.size() - static_cast<std::uint64_t>(std::count(
                              tags_.begin(), tags_.end(), emptyTag));
}

} // namespace klebsim::hw
