/**
 * @file
 * The execution interface between workloads and the CPU core model.
 *
 * Workloads describe their behaviour as a stream of WorkChunks — a
 * few tens of microseconds of execution each, carrying an
 * instruction-class mix and a memory-access generator.  The CPU
 * consumes chunks, runs their memory accesses through the cache
 * hierarchy, costs them in cycles, and attributes the resulting
 * hardware events to the PMU over simulated time.
 */

#ifndef KLEBSIM_HW_EXEC_TYPES_HH
#define KLEBSIM_HW_EXEC_TYPES_HH

#include <cstddef>
#include <cstdint>

#include "base/types.hh"
#include "perf_event.hh"

namespace klebsim::hw
{

class MemHierarchy;

/**
 * Generator of a workload's memory reference stream.  Owned by the
 * workload; the CPU pulls from it while executing a chunk.
 */
class AddressStream
{
  public:
    virtual ~AddressStream() = default;

    /**
     * Write the addresses of the next @p n references into @p addrs.
     * The CPU makes one call per chunk and then walks the lane as a
     * plain array, so a stream pays one virtual dispatch per chunk,
     * not one per access, and may fill several lanes at once (the
     * workload streams fill eight at a time on hosts with AVX-512F
     * and AVX-512DQ).  The walk consumes the lane, so every chunk
     * fills it afresh.  The cache model allocates on reads and
     * writes alike, so a reference is its address only.
     */
    virtual void fillBatch(Addr *addrs, std::size_t n) = 0;
};

/**
 * A slice of work: instruction-class counts plus memory behaviour.
 *
 * Two fidelities exist:
 *  - normal chunks carry a stream; the CPU issues up to the machine's
 *    memSampleCap real accesses and extrapolates the rest;
 *  - preExecuted chunks (used by the Meltdown attack, which needs
 *    access-by-access cache semantics and latency feedback) have
 *    already performed their accesses against the hierarchy and carry
 *    final event counts and stall cycles.
 */
struct WorkChunk
{
    /** Total instructions retired by the chunk. */
    std::uint64_t instructions = 0;

    /** @{ Instruction-class breakdown (each <= instructions). */
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t branches = 0;
    std::uint64_t muls = 0;
    std::uint64_t divs = 0;
    std::uint64_t fpops = 0;
    /** @} */

    /** Fraction of branches mispredicted. */
    double mispredictRate = 0.02;

    /** IPC in the absence of memory stalls and branch penalties. */
    double baseIpc = 2.0;

    /**
     * Scales the machine's memory-stall exposure for this chunk.
     * Streaming phases with prefetch-friendly (sequential) access
     * hide most of their miss latency on real hardware; they set
     * this well below 1.0.
     */
    double stallExposureScale = 1.0;

    /** Floating-point operations performed (GFLOPS accounting). */
    double flops = 0.0;

    /** Privilege the chunk executes at. */
    PrivLevel priv = PrivLevel::user;

    /** Memory reference generator (may be null if loads+stores==0). */
    AddressStream *stream = nullptr;

    /** @{ Pre-executed chunks (exact-access mode). */
    bool preExecuted = false;
    EventVector preEvents{};       //!< final event counts
    std::uint64_t preStallCycles = 0;
    /** @} */

    /**
     * If nonzero, the chunk's cycle cost is taken verbatim instead
     * of being derived from the IPC/stall model.  Used to model
     * fixed-cost instrumentation points (PAPI/LiMiT read regions)
     * embedded in a workload.
     */
    std::uint64_t fixedCycles = 0;
};

/**
 * A workload as seen by the CPU: a pull-based chunk source.
 */
class WorkSource
{
  public:
    virtual ~WorkSource() = default;

    /** True once the workload has emitted its last chunk. */
    virtual bool done() const = 0;

    /**
     * Produce the next chunk.  Must not be called once done().
     * Called at prepare time with the executing core's memory
     * hierarchy, so exact-access workloads can probe it directly.
     */
    virtual WorkChunk nextChunk(MemHierarchy &mem) = 0;

    /** Reset to the beginning (for repeated trials). */
    virtual void reset() = 0;
};

} // namespace klebsim::hw

#endif // KLEBSIM_HW_EXEC_TYPES_HH
