#include "mem_hierarchy.hh"

#include "base/cpu_features.hh"
#include "base/logging.hh"

namespace klebsim::hw
{

MemHierarchy::MemHierarchy(const MachineConfig &cfg, Cache *shared_llc)
    : cfg_(cfg), l1_("L1D", cfg.l1d), l2_("L2", cfg.l2),
      llc_(shared_llc)
{
    panic_if(llc_ == nullptr, "MemHierarchy needs a shared LLC");
}

WalkCounts
MemHierarchy::walk(Addr *lane, std::size_t n)
{
#if defined(__x86_64__)
    if (vectorWalk())
        return walkAvx512(lane, n);
#endif
    return walkScalar(lane, n);
}

WalkCounts
MemHierarchy::walkNonTemporal(Addr *lane, std::size_t n)
{
#if defined(__x86_64__)
    if (vectorWalk())
        return walkNonTemporalAvx512(lane, n);
#endif
    return walkNonTemporalScalar(lane, n);
}

bool
MemHierarchy::vectorWalk() const
{
    return hostHasAvx512f() &&
           l1_.geometry().ways <= Cache::vectorMaxWays &&
           l2_.geometry().ways <= Cache::vectorMaxWays &&
           llc_->geometry().ways <= Cache::vectorMaxWays;
}

// The walk bodies are 64-byte aligned, as are the cache's lane
// lookups (cache.cc) and each address stream's fill bodies: see
// workload/address_streams.cc.

[[gnu::aligned(64)]] WalkCounts
MemHierarchy::walkScalar(const Addr *addrs, std::size_t n)
{
    std::uint64_t l1Miss = 0, l2Miss = 0, llcMiss = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const AccessOutcome out = access(addrs[i]);
        l1Miss += out.l1Miss;
        l2Miss += out.l2Miss;
        llcMiss += out.llcMiss;
    }
    return {l1Miss, l2Miss, llcMiss};
}

[[gnu::aligned(64)]] WalkCounts
MemHierarchy::walkNonTemporalScalar(const Addr *addrs, std::size_t n)
{
    std::uint64_t l1Miss = 0, l2Miss = 0, llcMiss = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const AccessOutcome out = accessNonTemporal(addrs[i]);
        l1Miss += out.l1Miss;
        l2Miss += out.l2Miss;
        llcMiss += out.llcMiss;
    }
    return {l1Miss, l2Miss, llcMiss};
}

#if defined(__x86_64__)
// Level at a time.  A level's lookups are exactly the previous
// level's misses in lane order, and nothing else touches the three
// caches during one walk, so each cache sees the same sequence of
// lookups as in the scalar body and ends with the same tags and
// stats (DESIGN.md §12).

[[gnu::target("avx512f"), gnu::aligned(64)]] WalkCounts
MemHierarchy::walkAvx512(Addr *lane, std::size_t n)
{
    const std::size_t l1Miss = l1_.accessLaneAvx512(lane, n);
    const std::size_t l2Miss = l2_.accessLaneAvx512(lane, l1Miss);
    return {l1Miss, l2Miss, llc_->accessLaneAvx512(lane, l2Miss)};
}

[[gnu::target("avx512f"), gnu::aligned(64)]] WalkCounts
MemHierarchy::walkNonTemporalAvx512(Addr *lane, std::size_t n)
{
    // Only L1 allocates, as in accessNonTemporal(); the deeper levels
    // are probed, so the order of their probes changes no answer.
    const std::size_t l1Miss = l1_.accessLaneAvx512(lane, n);
    const std::size_t l2Miss = l2_.probeLaneAvx512(lane, l1Miss);
    return {l1Miss, l2Miss, llc_->probeLaneAvx512(lane, l2Miss)};
}
#endif

AccessOutcome
MemHierarchy::clflush(Addr addr)
{
    AccessOutcome out;
    out.cycles = cfg_.latency.clflush;
    out.level = MemLevel::dram;
    if (l1_.flushLine(addr))
        out.level = MemLevel::l1;
    if (l2_.flushLine(addr) && out.level == MemLevel::dram)
        out.level = MemLevel::l2;
    if (llc_->flushLine(addr) && out.level == MemLevel::dram)
        out.level = MemLevel::llc;
    return out;
}

MemLevel
MemHierarchy::probe(Addr addr) const
{
    if (l1_.contains(addr))
        return MemLevel::l1;
    if (l2_.contains(addr))
        return MemLevel::l2;
    if (llc_->contains(addr))
        return MemLevel::llc;
    return MemLevel::dram;
}

EventVector
MemHierarchy::outcomeEvents(const AccessOutcome &out, bool write)
{
    EventVector ev = zeroEvents();
    at(ev, HwEvent::l1dReference) = 1;
    if (write)
        at(ev, HwEvent::storeRetired) = 1;
    else
        at(ev, HwEvent::loadRetired) = 1;
    if (out.l1Miss)
        at(ev, HwEvent::l1dMiss) = 1;
    if (out.l1Miss)
        at(ev, HwEvent::l2Reference) = 1;
    if (out.l2Miss) {
        at(ev, HwEvent::l2Miss) = 1;
        at(ev, HwEvent::llcReference) = 1;
    }
    if (out.llcMiss)
        at(ev, HwEvent::llcMiss) = 1;
    return ev;
}

} // namespace klebsim::hw
