#include "cache.hh"

#include <algorithm>
#include <bit>

#include "base/intmath.hh"
#include "base/logging.hh"

namespace klebsim::hw
{

Cache::Cache(std::string name, const CacheGeometry &geom, Random rng)
    : geom_(geom), rng_(rng), name_(std::move(name))
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
    if (geom.policy == ReplPolicy::treePlru) {
        fatal_if(!isPowerOf2(geom.ways),
                 "cache ", name_, ": tree-PLRU needs pow2 ways");
        plru_.assign(numSets_ * geom.ways, 0);
    }
}

void
Cache::touchPlru(std::uint64_t set, std::uint32_t way)
{
    // Walk the tree from root to the touched way, pointing each node
    // away from it.
    std::uint8_t *bits = &plru_[set * ways_];
    std::uint32_t node = 1;
    std::uint32_t lo = 0;
    std::uint32_t hi = ways_;
    while (hi - lo > 1) {
        std::uint32_t mid = (lo + hi) / 2;
        if (way < mid) {
            bits[node] = 1; // next victim search goes right
            hi = mid;
            node = 2 * node;
        } else {
            bits[node] = 0; // next victim search goes left
            lo = mid;
            node = 2 * node + 1;
        }
    }
}

void
Cache::fillSlot(Addr *tags, std::uint64_t set, Addr line)
{
    auto way = static_cast<std::uint32_t>(
        std::find(tags, tags + ways_, emptyTag) - tags);
    if (way == ways_) {
        ++stats_.evictions;
        if (geom_.policy == ReplPolicy::random) {
            way = rng_.below(ways_);
        } else {
            const std::uint8_t *bits = &plru_[set * ways_];
            std::uint32_t node = 1;
            std::uint32_t lo = 0;
            std::uint32_t hi = ways_;
            while (hi - lo > 1) {
                std::uint32_t mid = (lo + hi) / 2;
                if (bits[node]) {
                    lo = mid;
                    node = 2 * node + 1;
                } else {
                    hi = mid;
                    node = 2 * node;
                }
            }
            way = lo;
        }
    }
    tags[way] = line;
    if (geom_.policy == ReplPolicy::treePlru)
        touchPlru(set, way);
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
    if (geom_.policy == ReplPolicy::lru) {
        // Close the gap so the empty ways stay at the tail.
        std::copy(way + 1, end, way);
        way = end - 1;
    }
    *way = emptyTag;
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
