/**
 * @file
 * Static description of a simulated machine: core count, clock
 * frequencies, cache geometry, and micro-timing parameters.
 *
 * Two presets mirror the paper's testbeds: the local Intel Core
 * i7-920 (Nehalem) and the AWS Xeon Platinum 8259CL (Cascade Lake)
 * used for validation runs.
 */

#ifndef KLEBSIM_HW_MACHINE_CONFIG_HH
#define KLEBSIM_HW_MACHINE_CONFIG_HH

#include <cstdint>
#include <string>

#include "cache.hh"

namespace klebsim::hw
{

/** Per-level access latencies, in core cycles. */
struct MemLatency
{
    std::uint32_t l1 = 4;
    std::uint32_t l2 = 10;
    std::uint32_t llc = 38;
    std::uint32_t dram = 180;
    std::uint32_t clflush = 40;
};

/** Pipeline/IPC model parameters. */
struct PipelineModel
{
    /** Cycles lost per mispredicted branch. */
    std::uint32_t branchMispredictPenalty = 17;

    /**
     * Fraction of memory-stall cycles that are NOT hidden by
     * out-of-order overlap (1.0 = fully serialized).
     */
    double memStallExposure = 0.55;

    /** IPC of generic kernel-mode work (interrupt/syscall bodies). */
    double kernelIpc = 1.1;
};

/** Whole-machine configuration. */
struct MachineConfig
{
    std::string name = "generic";
    int numCores = 4;
    double coreFreqHz = 2.67e9;
    /** Reference (TSC) clock, for the fixed REF cycles counter. */
    double refFreqHz = 133.0e6 * 20; // 2.66 GHz bus-derived clock

    CacheGeometry l1d;
    CacheGeometry l2;
    CacheGeometry llc;
    MemLatency latency;
    PipelineModel pipeline;

    /**
     * Cap on real cache-model accesses issued per work chunk; the
     * remainder of the chunk's accesses are extrapolated from the
     * sampled miss rates (see DESIGN.md "two execution fidelities").
     * Each CpuCore latches it when built.
     */
    std::uint32_t memSampleCap = 192;

    /** The paper's local testbed: Intel Core i7-920 @ 2.67 GHz. */
    static MachineConfig corei7_920();

    /** The paper's AWS validation box: Xeon Platinum 8259CL. */
    static MachineConfig xeon8259cl();
};

} // namespace klebsim::hw

#endif // KLEBSIM_HW_MACHINE_CONFIG_HH
