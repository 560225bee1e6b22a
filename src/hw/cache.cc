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
    stride_ = geom.policy == ReplPolicy::lru ? 2 * ways_ : ways_;
    // Stamps start as emptyTag too: a stamp is read only once its
    // set is full, and by then every way has been touched.
    block_.assign(numSets_ * stride_, emptyTag);
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

std::uint32_t
Cache::victimWay(const Addr *tags, std::uint64_t set)
{
    switch (geom_.policy) {
      case ReplPolicy::random:
        return rng_.below(ways_);
      case ReplPolicy::treePlru: {
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
        return lo;
      }
      case ReplPolicy::lru:
      default: {
        // Stamps are unique, so the smallest is the one way touched
        // longest ago.  Selects rather than branches: which way is
        // oldest is unpredictable.
        const Addr *stamps = tags + ways_;
        Addr oldest = stamps[0];
        std::uint32_t victim = 0;
        for (std::uint32_t w = 1; w < ways_; ++w) {
            const bool older = stamps[w] < oldest;
            oldest = older ? stamps[w] : oldest;
            victim = older ? w : victim;
        }
        return victim;
      }
    }
}

bool
Cache::flushLine(Addr addr)
{
    ++stats_.flushes;
    const Addr line = addr >> lineShift_;
    Addr *tags = &block_[setOf(line) * stride_];
    Addr *end = tags + ways_;
    Addr *way = std::find(tags, end, line);
    if (way == end)
        return false;
    *way = emptyTag;
    return true;
}

void
Cache::flushAll()
{
    for (std::uint64_t s = 0; s < numSets_; ++s)
        std::fill_n(&block_[s * stride_], ways_, emptyTag);
}

void
Cache::resetStats()
{
    stats_ = CacheStats{};
}

std::uint64_t
Cache::residentLines() const
{
    std::uint64_t n = 0;
    for (std::uint64_t s = 0; s < numSets_; ++s) {
        const Addr *tags = &block_[s * stride_];
        n += ways_ - static_cast<std::uint64_t>(
                         std::count(tags, tags + ways_, emptyTag));
    }
    return n;
}

} // namespace klebsim::hw
