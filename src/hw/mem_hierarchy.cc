#include "mem_hierarchy.hh"

#include "base/logging.hh"

namespace klebsim::hw
{

MemHierarchy::MemHierarchy(const MachineConfig &cfg, Cache *shared_llc)
    : cfg_(cfg), l1_("L1D", cfg.l1d), l2_("L2", cfg.l2),
      llc_(shared_llc)
{
    panic_if(llc_ == nullptr, "MemHierarchy needs a shared LLC");
}

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
    if (out.l2Miss)
        at(ev, HwEvent::l2Miss) = 1;
    if (out.llcRef)
        at(ev, HwEvent::llcReference) = 1;
    if (out.llcMiss)
        at(ev, HwEvent::llcMiss) = 1;
    return ev;
}

} // namespace klebsim::hw
