#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "hw/cache.hh"

using namespace klebsim;
using namespace klebsim::hw;

namespace
{

/** (size, ways, policy) sweep. */
using CacheParam = std::tuple<std::uint64_t, std::uint32_t,
                              ReplPolicy>;

class CacheProperty
    : public ::testing::TestWithParam<CacheParam>
{
  protected:
    CacheGeometry
    geom() const
    {
        auto [size, ways, policy] = GetParam();
        return {size, ways, 64, policy};
    }
};

} // namespace

/** Property: an access to a just-accessed line always hits. */
TEST_P(CacheProperty, ImmediateReuseAlwaysHits)
{
    Cache c("p", geom(), Random(1));
    Random rng(77);
    for (int i = 0; i < 2000; ++i) {
        Addr a = rng.next64() % (1 << 26);
        c.access(a, rng.chance(0.3));
        EXPECT_TRUE(c.access(a, false)) << "addr " << a;
    }
}

/** Property: hits + misses == accesses, always. */
TEST_P(CacheProperty, StatsBalance)
{
    Cache c("p", geom(), Random(2));
    Random rng(78);
    for (int i = 0; i < 5000; ++i)
        c.access(rng.next64() % (1 << 24), rng.chance(0.5));
    EXPECT_EQ(c.stats().hits + c.stats().misses, 5000u);
    EXPECT_EQ(c.stats().accesses(), 5000u);
}

/** Property: resident lines never exceed the capacity in lines. */
TEST_P(CacheProperty, ResidencyBounded)
{
    Cache c("p", geom(), Random(3));
    Random rng(79);
    std::uint64_t capacity_lines = geom().sizeBytes / 64;
    for (int i = 0; i < 5000; ++i) {
        c.access(rng.next64() % (1 << 28), false);
        ASSERT_LE(c.residentLines(), capacity_lines);
    }
    // A long stream fills the cache completely.
    for (Addr a = 0; a < geom().sizeBytes * 4; a += 64)
        c.access(a, false);
    EXPECT_EQ(c.residentLines(), capacity_lines);
}

/** Property: evictions == misses - lines resident at the end. */
TEST_P(CacheProperty, EvictionAccounting)
{
    Cache c("p", geom(), Random(4));
    Random rng(80);
    for (int i = 0; i < 4000; ++i)
        c.access(rng.next64() % (1 << 26), false);
    EXPECT_EQ(c.stats().evictions,
              c.stats().misses - c.residentLines());
}

/** Property: a working set within one way-worth per set is stable. */
TEST_P(CacheProperty, SmallWorkingSetStable)
{
    Cache c("p", geom(), Random(5));
    // One line per set: footprint = sets * lineSize.
    std::uint64_t footprint = geom().sets() * 64;
    for (int round = 0; round < 4; ++round)
        for (Addr a = 0; a < footprint; a += 64)
            c.access(a, false);
    // After the cold round, everything hits.
    EXPECT_EQ(c.stats().misses, footprint / 64);
}

/** Property: flushAll leaves an empty cache that re-misses. */
TEST_P(CacheProperty, FlushAllResets)
{
    Cache c("p", geom(), Random(6));
    for (Addr a = 0; a < 4096; a += 64)
        c.access(a, false);
    c.flushAll();
    EXPECT_EQ(c.residentLines(), 0u);
    c.resetStats();
    for (Addr a = 0; a < 4096; a += 64)
        EXPECT_FALSE(c.access(a, false));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheProperty,
    ::testing::Values(
        CacheParam{4096, 1, ReplPolicy::lru},       // direct-mapped
        CacheParam{32768, 8, ReplPolicy::lru},      // L1-like
        CacheParam{262144, 8, ReplPolicy::lru},     // L2-like
        CacheParam{32768, 8, ReplPolicy::treePlru},
        CacheParam{32768, 8, ReplPolicy::random},
        CacheParam{49152, 12, ReplPolicy::lru},     // non-pow2 ways
        CacheParam{196608, 3, ReplPolicy::random},  // odd ways
        // 11 ways x 104 sets: the modulo set index.
        CacheParam{73216, 11, ReplPolicy::lru},
        CacheParam{73216, 11, ReplPolicy::random}),
    [](const ::testing::TestParamInfo<CacheParam> &info) {
        // Note: no structured bindings here — the unparenthesized
        // commas would split the INSTANTIATE macro's arguments.
        std::uint64_t size = std::get<0>(info.param);
        std::uint32_t ways = std::get<1>(info.param);
        ReplPolicy policy = std::get<2>(info.param);
        const char *pol =
            policy == ReplPolicy::lru
                ? "lru"
                : policy == ReplPolicy::random ? "rand" : "plru";
        return std::to_string(size / 1024) + "k_w" +
               std::to_string(ways) + "_" + pol;
    });

namespace
{

/**
 * Straightforward reference for hw::Cache: a valid flag and a
 * set-relative tag per way, division indexing, an LRU stamp scan,
 * the same tree-PLRU walk and rng.below(ways) for random.
 */
class RefCache
{
  public:
    RefCache(const CacheGeometry &g, Random rng)
        : g_(g), sets_(g.sets()), ways_(sets_ * g.ways),
          plru_(sets_ * g.ways, 0), rng_(rng)
    {
    }

    bool
    access(Addr addr)
    {
        const std::uint64_t set = setOf(addr);
        Way *ways = &ways_[set * g_.ways];
        for (std::uint32_t w = 0; w < g_.ways; ++w) {
            if (ways[w].valid && ways[w].tag == tagOf(addr)) {
                ++stats.hits;
                touch(set, w);
                return true;
            }
        }
        ++stats.misses;
        std::uint32_t way = g_.ways;
        for (std::uint32_t w = 0; w < g_.ways && way == g_.ways; ++w)
            if (!ways[w].valid)
                way = w;
        if (way == g_.ways) {
            way = victim(set);
            ++stats.evictions;
        }
        ways[way] = {true, tagOf(addr), 0};
        touch(set, way);
        return false;
    }

    bool
    contains(Addr addr) const
    {
        const Way *ways = &ways_[setOf(addr) * g_.ways];
        for (std::uint32_t w = 0; w < g_.ways; ++w)
            if (ways[w].valid && ways[w].tag == tagOf(addr))
                return true;
        return false;
    }

    bool
    flushLine(Addr addr)
    {
        ++stats.flushes;
        Way *ways = &ways_[setOf(addr) * g_.ways];
        for (std::uint32_t w = 0; w < g_.ways; ++w) {
            if (ways[w].valid && ways[w].tag == tagOf(addr)) {
                ways[w].valid = false;
                return true;
            }
        }
        return false;
    }

    void
    flushAll()
    {
        for (Way &w : ways_)
            w.valid = false;
    }

    std::uint64_t
    residentLines() const
    {
        std::uint64_t n = 0;
        for (const Way &w : ways_)
            n += w.valid ? 1 : 0;
        return n;
    }

    CacheStats stats;

  private:
    struct Way
    {
        bool valid;
        Addr tag;
        std::uint64_t stamp;
    };

    std::uint64_t
    setOf(Addr addr) const
    {
        return (addr / g_.lineSize) % sets_;
    }

    Addr
    tagOf(Addr addr) const
    {
        return (addr / g_.lineSize) / sets_;
    }

    void
    touch(std::uint64_t set, std::uint32_t way)
    {
        ways_[set * g_.ways + way].stamp = ++clock_;
        if (g_.policy != ReplPolicy::treePlru)
            return;
        std::uint8_t *bits = &plru_[set * g_.ways];
        std::uint32_t node = 1, lo = 0, hi = g_.ways;
        while (hi - lo > 1) {
            std::uint32_t mid = (lo + hi) / 2;
            if (way < mid) {
                bits[node] = 1;
                hi = mid;
                node = 2 * node;
            } else {
                bits[node] = 0;
                lo = mid;
                node = 2 * node + 1;
            }
        }
    }

    std::uint32_t
    victim(std::uint64_t set)
    {
        if (g_.policy == ReplPolicy::random)
            return rng_.below(g_.ways);
        if (g_.policy == ReplPolicy::treePlru) {
            const std::uint8_t *bits = &plru_[set * g_.ways];
            std::uint32_t node = 1, lo = 0, hi = g_.ways;
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
        const Way *ways = &ways_[set * g_.ways];
        std::uint32_t oldest = 0;
        for (std::uint32_t w = 1; w < g_.ways; ++w)
            if (ways[w].stamp < ways[oldest].stamp)
                oldest = w;
        return oldest;
    }

    CacheGeometry g_;
    std::uint64_t sets_;
    std::vector<Way> ways_;
    std::vector<std::uint8_t> plru_;
    std::uint64_t clock_ = 0;
    Random rng_;
};

/** (label, size, ways) of a geometry the reference sweep covers. */
struct RefGeometry
{
    const char *label;
    std::uint64_t size;
    std::uint32_t ways;
};

/** Prints the label, so listed test names do not carry addresses. */
void
PrintTo(const RefGeometry &g, std::ostream *os)
{
    *os << g.label;
}

using RefParam = std::tuple<RefGeometry, ReplPolicy>;

class CacheReference : public ::testing::TestWithParam<RefParam>
{
};

} // namespace

/**
 * Property: for 16 seeds, a seeded mix of access, contains,
 * flushLine and flushAll gives the same result, the same stats and
 * the same residency in hw::Cache and in the reference model.  The
 * addresses crowd a few sets (the first, the last and two inside),
 * so full sets and evictions occur even in an LLC, and some sit near
 * the top of the address space.
 */
TEST_P(CacheReference, MatchesReferenceModel)
{
    const auto &[shape, policy] = GetParam();
    const CacheGeometry geom{shape.size, shape.ways, 64, policy};
    const std::uint64_t sets = geom.sets();
    const std::uint64_t hotSets[] = {0, sets - 1, sets / 2 + 1,
                                     sets / 3 + 2};
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Cache cache("dut", geom, Random(seed, 3));
        RefCache ref(geom, Random(seed, 3));
        Random rng(seed + 1000);
        for (int op = 0; op < 3000; ++op) {
            Addr addr;
            const std::uint32_t kind = rng.below(8);
            if (kind == 0) {
                addr = rng.next64();
            } else if (kind == 1) {
                addr = ~Addr(0) - rng.below(1u << 16);
            } else {
                const Addr line =
                    rng.below(geom.ways + 3) * sets +
                    hotSets[rng.below(4)];
                addr = line * 64 + rng.below(64);
            }
            const std::uint32_t what = rng.below(100);
            if (what < 70) {
                const bool write = rng.chance(0.3);
                ASSERT_EQ(cache.access(addr, write), ref.access(addr))
                    << "op " << op;
            } else if (what < 85) {
                ASSERT_EQ(cache.contains(addr), ref.contains(addr))
                    << "op " << op;
            } else if (what < 99) {
                ASSERT_EQ(cache.flushLine(addr), ref.flushLine(addr))
                    << "op " << op;
            } else {
                cache.flushAll();
                ref.flushAll();
            }
            ASSERT_EQ(cache.stats().hits, ref.stats.hits);
            ASSERT_EQ(cache.stats().misses, ref.stats.misses);
            ASSERT_EQ(cache.stats().evictions, ref.stats.evictions);
            ASSERT_EQ(cache.stats().flushes, ref.stats.flushes);
            if (op % 1000 == 0) {
                ASSERT_EQ(cache.residentLines(), ref.residentLines());
            }
        }
        EXPECT_EQ(cache.residentLines(), ref.residentLines());
    }
}

namespace
{

/** i7-920 and Xeon 8259CL levels, direct-mapped and 12-way. */
constexpr RefGeometry pow2Ways[] = {
    {"i7_l1", 32 * 1024, 8},
    {"i7_l2", 256 * 1024, 8},
    {"i7_llc", 8 * 1024 * 1024, 16},
    {"xeon_l2", 1024 * 1024, 16},
    {"direct", 4096, 1},
    {"direct_104sets", 104 * 64, 1},
};

constexpr RefGeometry otherWays[] = {
    {"xeon_llc", (35 * 1024 + 768) * 1024, 11},
    {"w12", 49152, 12},
    {"w12_104sets", 12 * 104 * 64, 12},
};

std::string
refName(const ::testing::TestParamInfo<RefParam> &info)
{
    const ReplPolicy policy = std::get<1>(info.param);
    return std::string(std::get<0>(info.param).label) +
           (policy == ReplPolicy::lru
                ? "_lru"
                : policy == ReplPolicy::random ? "_rand" : "_plru");
}

} // namespace

INSTANTIATE_TEST_SUITE_P(
    Pow2Ways, CacheReference,
    ::testing::Combine(::testing::ValuesIn(pow2Ways),
                       ::testing::Values(ReplPolicy::lru,
                                         ReplPolicy::random,
                                         ReplPolicy::treePlru)),
    refName);

// Tree-PLRU needs a power-of-two way count.
INSTANTIATE_TEST_SUITE_P(
    OtherWays, CacheReference,
    ::testing::Combine(::testing::ValuesIn(otherWays),
                       ::testing::Values(ReplPolicy::lru,
                                         ReplPolicy::random)),
    refName);
