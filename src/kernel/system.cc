#include "system.hh"

namespace klebsim::kernel
{

System::System(hw::MachineConfig cfg, std::uint64_t seed,
               CostModel costs)
    : cfg_(std::move(cfg)), rng_(seed, 0x5d3),
      llc_("LLC", cfg_.llc, rng_.fork(0x11c))
{
    std::vector<hw::CpuCore *> raw_cores;
    for (int i = 0; i < cfg_.numCores; ++i) {
        cores_.push_back(std::make_unique<hw::CpuCore>(
            i, cfg_, eq_, &llc_, rng_.fork(0xc0de + i)));
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
