#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "hw/machine_config.hh"
#include "hw/mem_hierarchy.hh"

using namespace klebsim;
using namespace klebsim::hw;

namespace
{

struct Preset
{
    const char *name;
    MachineConfig (*make)();
};

// Print a preset by name. The default printer would show the function
// pointer's address, which moves with every build and load, and the
// printed value is part of each test's discovered ctest name.
void
PrintTo(const Preset &preset, std::ostream *os)
{
    *os << preset.name;
}

class MachinePreset : public ::testing::TestWithParam<Preset>
{
};

} // namespace

TEST_P(MachinePreset, GeometryIsConsistent)
{
    MachineConfig cfg = GetParam().make();
    for (const CacheGeometry *g : {&cfg.l1d, &cfg.l2, &cfg.llc}) {
        EXPECT_GT(g->sets(), 0u);
        EXPECT_EQ(g->sets() * g->ways * g->lineSize, g->sizeBytes);
    }
    // Strictly growing capacity down the hierarchy.
    EXPECT_LT(cfg.l1d.sizeBytes, cfg.l2.sizeBytes);
    EXPECT_LT(cfg.l2.sizeBytes, cfg.llc.sizeBytes);
    // Strictly growing latency.
    EXPECT_LT(cfg.latency.l1, cfg.latency.l2);
    EXPECT_LT(cfg.latency.l2, cfg.latency.llc);
    EXPECT_LT(cfg.latency.llc, cfg.latency.dram);
    EXPECT_GE(cfg.numCores, 1);
    EXPECT_GT(cfg.coreFreqHz, 1e9);
    EXPECT_GT(cfg.memSampleCap, 0u);
}

TEST_P(MachinePreset, CachesConstructAndOperate)
{
    MachineConfig cfg = GetParam().make();
    Cache llc("LLC", cfg.llc, Random(1));
    MemHierarchy mem(cfg, &llc, Random(2));
    AccessOutcome cold = mem.access(0x1234000, false);
    EXPECT_EQ(cold.level, MemLevel::dram);
    AccessOutcome warm = mem.access(0x1234000, false);
    EXPECT_EQ(warm.level, MemLevel::l1);
}

INSTANTIATE_TEST_SUITE_P(
    Presets, MachinePreset,
    ::testing::Values(Preset{"corei7_920", &MachineConfig::corei7_920},
                      Preset{"xeon8259cl", &MachineConfig::xeon8259cl}),
    [](const ::testing::TestParamInfo<Preset> &info) {
        return std::string(info.param.name);
    });

TEST(MachineConfig, PresetsDiffer)
{
    MachineConfig i7 = MachineConfig::corei7_920();
    MachineConfig xeon = MachineConfig::xeon8259cl();
    EXPECT_NE(i7.name, xeon.name);
    EXPECT_GT(xeon.llc.sizeBytes, i7.llc.sizeBytes);
    EXPECT_GT(xeon.l2.sizeBytes, i7.l2.sizeBytes);
    // The Cascade Lake LLC uses a non-power-of-two way count —
    // exercised deliberately (modulo indexing).
    EXPECT_EQ(xeon.llc.ways, 11u);
}
