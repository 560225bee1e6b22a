#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "base/cpu_features.hh"
#include "base/random.hh"
#include "hw/cache.hh"

using namespace klebsim;
using namespace klebsim::hw;

namespace
{

/**
 * The replacement-policy column of both sweeps.  LRU is the model's
 * only policy; the column keeps each row's printed parameter, and so
 * its full ctest name, stable.
 */
enum class Policy
{
    lru,
};

/** (size, ways, policy) sweep. */
using CacheParam = std::tuple<std::uint64_t, std::uint32_t, Policy>;

class CacheProperty
    : public ::testing::TestWithParam<CacheParam>
{
  protected:
    CacheGeometry
    geom() const
    {
        return {std::get<0>(GetParam()), std::get<1>(GetParam()), 64};
    }
};

} // namespace

/** Property: an access to a just-accessed line always hits. */
TEST_P(CacheProperty, ImmediateReuseAlwaysHits)
{
    Cache c("p", geom());
    Random rng(77);
    for (int i = 0; i < 2000; ++i) {
        Addr a = rng.next64() % (1 << 26);
        c.access(a);
        EXPECT_TRUE(c.access(a)) << "addr " << a;
    }
}

/** Property: hits + misses == accesses, always. */
TEST_P(CacheProperty, StatsBalance)
{
    Cache c("p", geom());
    Random rng(78);
    for (int i = 0; i < 5000; ++i)
        c.access(rng.next64() % (1 << 24));
    EXPECT_EQ(c.stats().hits + c.stats().misses, 5000u);
    EXPECT_EQ(c.stats().accesses(), 5000u);
}

/** Property: resident lines never exceed the capacity in lines. */
TEST_P(CacheProperty, ResidencyBounded)
{
    Cache c("p", geom());
    Random rng(79);
    std::uint64_t capacity_lines = geom().sizeBytes / 64;
    for (int i = 0; i < 5000; ++i) {
        c.access(rng.next64() % (1 << 28));
        ASSERT_LE(c.residentLines(), capacity_lines);
    }
    // A long stream fills the cache completely.
    for (Addr a = 0; a < geom().sizeBytes * 4; a += 64)
        c.access(a);
    EXPECT_EQ(c.residentLines(), capacity_lines);
}

/** Property: evictions == misses - lines resident at the end. */
TEST_P(CacheProperty, EvictionAccounting)
{
    Cache c("p", geom());
    Random rng(80);
    for (int i = 0; i < 4000; ++i)
        c.access(rng.next64() % (1 << 26));
    EXPECT_EQ(c.stats().evictions,
              c.stats().misses - c.residentLines());
}

/** Property: a working set within one way-worth per set is stable. */
TEST_P(CacheProperty, SmallWorkingSetStable)
{
    Cache c("p", geom());
    // One line per set: footprint = sets * lineSize.
    std::uint64_t footprint = geom().sets() * 64;
    for (int round = 0; round < 4; ++round)
        for (Addr a = 0; a < footprint; a += 64)
            c.access(a);
    // After the cold round, everything hits.
    EXPECT_EQ(c.stats().misses, footprint / 64);
}

/** Property: flushAll leaves an empty cache that re-misses. */
TEST_P(CacheProperty, FlushAllResets)
{
    Cache c("p", geom());
    for (Addr a = 0; a < 4096; a += 64)
        c.access(a);
    c.flushAll();
    EXPECT_EQ(c.residentLines(), 0u);
    c.resetStats();
    for (Addr a = 0; a < 4096; a += 64)
        EXPECT_FALSE(c.access(a));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheProperty,
    ::testing::Values(
        CacheParam{4096, 1, Policy::lru},   // direct-mapped
        CacheParam{32768, 8, Policy::lru},  // L1-like
        CacheParam{262144, 8, Policy::lru}, // L2-like
        CacheParam{49152, 12, Policy::lru}, // non-pow2 ways
        // 11 ways x 104 sets: the modulo set index.
        CacheParam{73216, 11, Policy::lru}),
    [](const ::testing::TestParamInfo<CacheParam> &info) {
        // Note: no structured bindings here — the unparenthesized
        // commas would split the INSTANTIATE macro's arguments.
        std::uint64_t size = std::get<0>(info.param);
        std::uint32_t ways = std::get<1>(info.param);
        return std::to_string(size / 1024) + "k_w" +
               std::to_string(ways) + "_lru";
    });

namespace
{

/**
 * Straightforward reference for hw::Cache: a valid flag and a
 * set-relative tag per way, division indexing, the lowest empty way
 * first and an LRU stamp scan for the victim.
 */
class RefCache
{
  public:
    explicit RefCache(const CacheGeometry &g)
        : g_(g), sets_(g.sets()), ways_(sets_ * g.ways)
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
    }

    std::uint32_t
    victim(std::uint64_t set) const
    {
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
    std::uint64_t clock_ = 0;
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

using RefParam = std::tuple<RefGeometry, Policy>;

class CacheReference : public ::testing::TestWithParam<RefParam>
{
};

/**
 * Cache::accessLaneAvx512() over @p lane, cut to the misses it
 * leaves at the front; only called where hostHasAvx512f().
 */
void
vectorAccess(Cache &cache, std::vector<Addr> &lane)
{
#if defined(__x86_64__)
    lane.resize(cache.accessLaneAvx512(lane.data(), lane.size()));
#else
    (void)cache;
    (void)lane;
#endif
}

/** Cache::probeLaneAvx512() as vectorAccess() runs accessLaneAvx512(). */
void
vectorProbe(const Cache &cache, std::vector<Addr> &lane)
{
#if defined(__x86_64__)
    lane.resize(cache.probeLaneAvx512(lane.data(), lane.size()));
#else
    (void)cache;
    (void)lane;
#endif
}

} // namespace

/**
 * Property: for 16 seeds, a seeded mix of access, contains,
 * flushLine and flushAll gives the same result, the same stats and
 * the same residency in hw::Cache and in the reference model.
 * Accesses and probes come in runs of 1 to 16 addresses.  The
 * addresses crowd a few sets (the first, the last and two inside),
 * so full sets and evictions occur even in an LLC, and some sit near
 * the top of the address space.  Where the host has AVX-512F and the
 * cache at most Cache::vectorMaxWays ways, a twin cache takes each
 * run as one batch lookup (accessLaneAvx512(), probeLaneAvx512()),
 * which must leave the run's misses, in order, at the front of the
 * lane, under the same assertions, and hold the same tags in the
 * same recency order as the scalar cache.
 */
TEST_P(CacheReference, MatchesReferenceModel)
{
    const RefGeometry &shape = std::get<0>(GetParam());
    const CacheGeometry geom{shape.size, shape.ways, 64};
    const std::uint64_t sets = geom.sets();
    const std::uint64_t hotSets[] = {0, sets - 1, sets / 2 + 1,
                                     sets / 3 + 2};
    const bool vectorWays = shape.ways <= Cache::vectorMaxWays;
    const bool twin = vectorWays && hostHasAvx512f();
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Cache cache("dut", geom);
        Cache vec("vector", geom);
        RefCache ref(geom);
        Random rng(seed + 1000);
        std::vector<const Cache *> checked{&cache};
        if (twin)
            checked.push_back(&vec);
        auto draw = [&]() -> Addr {
            const std::uint32_t kind = rng.below(8);
            if (kind == 0)
                return rng.next64();
            if (kind == 1)
                return ~Addr(0) - rng.below(1u << 16);
            const Addr line =
                rng.below(geom.ways + 3) * sets + hotSets[rng.below(4)];
            return line * 64 + rng.below(64);
        };
        for (int op = 0; op < 3000; ++op) {
            const std::uint32_t what = rng.below(100);
            if (what < 85) {
                const bool probe = what >= 70;
                std::vector<Addr> run(1 + rng.below(16));
                for (Addr &a : run)
                    a = draw();
                std::vector<Addr> missed;
                for (Addr a : run) {
                    const bool hit = probe ? ref.contains(a) : ref.access(a);
                    ASSERT_EQ(probe ? cache.contains(a) : cache.access(a),
                              hit)
                        << "op " << op;
                    if (!hit)
                        missed.push_back(a);
                }
                if (twin) {
                    if (probe)
                        vectorProbe(vec, run);
                    else
                        vectorAccess(vec, run);
                    ASSERT_EQ(run, missed) << "vector, op " << op;
                }
            } else if (what < 99) {
                const Addr addr = draw();
                const bool resident = ref.flushLine(addr);
                ASSERT_EQ(cache.flushLine(addr), resident)
                    << "op " << op;
                if (twin) {
                    ASSERT_EQ(vec.flushLine(addr), resident)
                        << "vector, op " << op;
                }
            } else {
                cache.flushAll();
                vec.flushAll();
                ref.flushAll();
            }
            for (const Cache *c : checked) {
                ASSERT_EQ(c->stats().hits, ref.stats.hits) << c->name();
                ASSERT_EQ(c->stats().misses, ref.stats.misses)
                    << c->name();
                ASSERT_EQ(c->stats().evictions, ref.stats.evictions)
                    << c->name();
                ASSERT_EQ(c->stats().flushes, ref.stats.flushes)
                    << c->name();
                if (op % 1000 == 0) {
                    ASSERT_EQ(c->residentLines(), ref.residentLines())
                        << c->name();
                }
            }
            if (twin && op % 100 == 0) {
                ASSERT_TRUE(vec.sameContents(cache)) << "op " << op;
            }
        }
        for (const Cache *c : checked)
            EXPECT_EQ(c->residentLines(), ref.residentLines())
                << c->name();
        if (twin) {
            EXPECT_TRUE(vec.sameContents(cache));
        }
    }
    if (vectorWays && !twin)
        GTEST_SKIP() << "the scalar lookup matched; the vector twin "
                        "needs AVX-512F, which this host lacks";
}

namespace
{

/**
 * i7-920 and Xeon 8259CL levels, direct-mapped, 12-way, and the
 * vector lookup's edges: 8 and 16 ways (whole blocks, stored at full
 * width), 11 ways (the Xeon LLC, under masks), 4 ways (one partial
 * block), 9 ways (one lane in the second block) and 17 ways (scalar
 * only).
 */
constexpr RefGeometry pow2Ways[] = {
    {"i7_l1", 32 * 1024, 8},
    {"i7_l2", 256 * 1024, 8},
    {"i7_llc", 8 * 1024 * 1024, 16},
    {"xeon_l2", 1024 * 1024, 16},
    {"direct", 4096, 1},
    {"direct_104sets", 104 * 64, 1},
    {"w4", 4 * 64 * 64, 4},
};

constexpr RefGeometry otherWays[] = {
    {"xeon_llc", (35 * 1024 + 768) * 1024, 11},
    {"w12", 49152, 12},
    {"w12_104sets", 12 * 104 * 64, 12},
    {"w9", 9 * 64 * 64, 9},
    {"w17", 17 * 64 * 64, 17},
};

std::string
refName(const ::testing::TestParamInfo<RefParam> &info)
{
    return std::string(std::get<0>(info.param).label) + "_lru";
}

} // namespace

INSTANTIATE_TEST_SUITE_P(
    Pow2Ways, CacheReference,
    ::testing::Combine(::testing::ValuesIn(pow2Ways),
                       ::testing::Values(Policy::lru)),
    refName);

INSTANTIATE_TEST_SUITE_P(
    OtherWays, CacheReference,
    ::testing::Combine(::testing::ValuesIn(otherWays),
                       ::testing::Values(Policy::lru)),
    refName);
