#include "machine_config.hh"

namespace klebsim::hw
{

MachineConfig
MachineConfig::corei7_920()
{
    MachineConfig cfg;
    cfg.name = "corei7-920";
    cfg.numCores = 4;
    cfg.coreFreqHz = 2.67e9;
    cfg.refFreqHz = 2.66e9;

    cfg.l1d = {32 * 1024, 8, 64};
    cfg.l2 = {256 * 1024, 8, 64};
    cfg.llc = {8 * 1024 * 1024, 16, 64};

    cfg.latency = {4, 10, 38, 180, 40};
    return cfg;
}

MachineConfig
MachineConfig::xeon8259cl()
{
    MachineConfig cfg;
    cfg.name = "xeon-8259cl";
    cfg.numCores = 8; // one NUMA slice of the 24-core part
    cfg.coreFreqHz = 2.50e9;
    cfg.refFreqHz = 2.50e9;

    cfg.l1d = {32 * 1024, 8, 64};
    cfg.l2 = {1024 * 1024, 16, 64};
    // 35.75 MB shared L3 on the real part; model an 11-way 35.75 MB
    // slice-sum (modulo indexing supports the non-pow2 set count).
    cfg.llc = {35 * 1024 * 1024 + 768 * 1024, 11, 64};

    cfg.latency = {4, 12, 44, 200, 40};
    return cfg;
}

} // namespace klebsim::hw
