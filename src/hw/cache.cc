#include "cache.hh"

#include <algorithm>
#include <bit>

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
