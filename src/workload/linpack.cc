#include "linpack.hh"

namespace klebsim::workload
{

double
linpackFlops(const LinpackParams &params)
{
    double n = static_cast<double>(params.n);
    return static_cast<double>(params.trials) *
           (2.0 / 3.0 * n * n * n + 2.0 * n * n);
}

double
linpackGflops(const LinpackParams &params, Tick lifetime)
{
    double sec = ticksToSec(lifetime);
    if (sec <= 0.0)
        return 0.0;
    return linpackFlops(params) / sec / 1e9;
}

std::unique_ptr<PhaseWorkload>
makeLinpack(const LinpackParams &params, Addr base, Random rng)
{
    double n = static_cast<double>(params.n);
    std::uint64_t matrix_bytes =
        static_cast<std::uint64_t>(n * n * 8.0);
    double run_flops = linpackFlops(params);
    double trial_flops =
        run_flops / static_cast<double>(params.trials);

    std::vector<Phase> phases;

    // Initialization: parameter extraction in kernel mode — the
    // paper notes the first samples show almost no user counts.
    Phase init;
    init.name = "init";
    init.instructions = 600000;
    init.loadFrac = 0.22;
    init.storeFrac = 0.08;
    init.branchFrac = 0.18;
    init.baseIpc = 1.2;
    init.priv = hw::PrivLevel::kernel;
    init.mem = MemPatternSpec::hotCold(16 * 1024, 256 * 1024, 0.9);
    phases.push_back(init);

    // Matrix generation: store-dominated sweep over A and b.
    // Sequential stores stream through write-combining buffers on
    // real hardware; stall exposure is low.
    Phase setup;
    setup.name = "setup";
    setup.instructions = static_cast<std::uint64_t>(n * n * 9.0);
    setup.loadFrac = 0.30;
    setup.storeFrac = 0.34;
    setup.branchFrac = 0.12;
    setup.mulFrac = 0.02;
    setup.baseIpc = 2.2;
    // Non-temporal streaming stores: almost fully hidden, so the
    // setup phase retires stores at full rate (Fig. 4's surge).
    setup.stallExposureScale = 0.01;
    setup.mem = MemPatternSpec::sequential(matrix_bytes);
    phases.push_back(setup);

    // One trial: blocksPerTrial repetitions of load/compute/store.
    // The compute phase carries the multiply-accumulate FLOPs; its
    // per-instruction FLOP weight folds the testbed's multi-core
    // packed-SIMD throughput into the single modeled core (the
    // paper's 37 GFLOPS came from a 4-core MKL run).
    double block_flops =
        trial_flops / static_cast<double>(params.blocksPerTrial);
    auto block_instr =
        static_cast<std::uint64_t>(block_flops / 7.5);

    Phase load;
    load.name = "load";
    load.instructions = block_instr / 24;
    load.loadFrac = 0.52;
    load.storeFrac = 0.05;
    load.branchFrac = 0.10;
    load.mulFrac = 0.04;
    load.baseIpc = 2.4;
    load.stallExposureScale = 0.04; // prefetched panel streaming
    load.mem = MemPatternSpec::sequential(matrix_bytes);

    Phase compute;
    compute.name = "compute";
    compute.instructions = block_instr;
    compute.loadFrac = 0.30;
    compute.storeFrac = 0.06;
    compute.branchFrac = 0.08;
    compute.mulFrac = 0.30;
    compute.fpFrac = 0.45;
    compute.baseIpc = 3.3;
    compute.flops = block_flops;
    compute.mispredictRate = 0.002;
    compute.mem =
        MemPatternSpec::hotCold(192 * 1024, matrix_bytes, 0.995,
                                0.15);

    Phase store;
    store.name = "store";
    store.instructions = block_instr / 24;
    store.loadFrac = 0.12;
    store.storeFrac = 0.48;
    store.branchFrac = 0.10;
    store.baseIpc = 2.2;
    store.stallExposureScale = 0.04;
    store.mem = MemPatternSpec::sequential(matrix_bytes);

    std::vector<Phase> trial =
        repeatPhases({load, compute, store}, params.blocksPerTrial);
    phases = concatPhases(
        std::move(phases),
        repeatPhases(trial, params.trials));

    return std::make_unique<PhaseWorkload>("linpack",
                                           std::move(phases), base,
                                           rng);
}

} // namespace klebsim::workload
