#include "system.hh"

namespace klebsim::kernel
{

System::System(hw::MachineConfig cfg, std::uint64_t seed,
               CostModel costs)
    : cfg_(std::move(cfg)), rng_(seed, 0x5d3), llc_("LLC", cfg_.llc)
{
    // The caches once forked replacement streams from rng_: one for
    // the LLC, then one per core.  Each fork advances rng_ by two
    // draws, so they are still taken, in the same order and before
    // the kernel's, to keep every later stream (kernel costs, timer
    // jitter, workloads) on the draws it has always had.
    rng_.fork(0x11c);
    std::vector<hw::CpuCore *> raw_cores;
    for (int i = 0; i < cfg_.numCores; ++i) {
        rng_.fork(0xc0de + i);
        cores_.push_back(
            std::make_unique<hw::CpuCore>(i, cfg_, eq_, &llc_));
        raw_cores.push_back(cores_.back().get());
    }
    kernel_ = std::make_unique<Kernel>(eq_, std::move(raw_cores),
                                       costs, rng_.fork(0xfee1));
}

hw::CpuCore &
System::core(CoreId id)
{
    return kernel_->core(id);
}

Tick
System::run(Tick limit)
{
    if (limit == maxTick) {
        eq_.runAll();
        return eq_.curTick();
    }
    eq_.runUntil(limit);
    return eq_.curTick();
}

} // namespace klebsim::kernel
