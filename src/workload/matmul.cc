#include "matmul.hh"

namespace klebsim::workload
{

double
matmulFlops(const MatMulParams &params)
{
    double n = static_cast<double>(params.n);
    return 2.0 * n * n * n;
}

std::unique_ptr<PhaseWorkload>
makeMatMulLoop(const MatMulParams &params, Addr base, Random rng)
{
    double n = static_cast<double>(params.n);
    auto matrix_bytes = static_cast<std::uint64_t>(3.0 * n * n * 8.0);
    double flops = matmulFlops(params);

    // ~8 instructions per inner iteration (loads, fma, index math,
    // branch); one inner iteration per multiply-add pair.
    auto instr = static_cast<std::uint64_t>(flops / 2.0 * 8.0);

    Phase init;
    init.name = "alloc-init";
    init.instructions = static_cast<std::uint64_t>(n * n * 6.0);
    init.loadFrac = 0.18;
    init.storeFrac = 0.40;
    init.branchFrac = 0.12;
    init.baseIpc = 2.0;
    init.stallExposureScale = 0.1; // streaming initialization
    init.mem = MemPatternSpec::sequential(matrix_bytes);

    Phase mult;
    mult.name = "triple-loop";
    mult.instructions = instr;
    mult.loadFrac = 0.26;
    mult.storeFrac = 0.02;
    mult.branchFrac = 0.13;
    mult.mulFrac = 0.13;
    mult.fpFrac = 0.25;
    mult.mispredictRate = 0.004;
    // The naive loop is bound by the FP dependency chain, not by
    // misses: B's lines are reused across 8 consecutive j
    // iterations, so the effective hot set (A/C rows + the active
    // B column panel) covers most accesses.
    mult.baseIpc = 1.5;
    mult.flops = flops;
    mult.mem = MemPatternSpec::hotCold(128 * 1024, matrix_bytes,
                                       0.995, 0.04);

    return std::make_unique<PhaseWorkload>(
        "matmul-loop", std::vector<Phase>{init, mult}, base, rng);
}

std::unique_ptr<PhaseWorkload>
makeMatMulMkl(const MatMulParams &params, Addr base, Random rng)
{
    double n = static_cast<double>(params.n);
    auto matrix_bytes = static_cast<std::uint64_t>(3.0 * n * n * 8.0);
    double flops = matmulFlops(params);

    // Packed SIMD multi-core dgemm folded into the modeled core:
    // ~5.3 FLOPs retire per fp instruction, with one overhead
    // instruction per fp instruction.
    auto fp_instr = static_cast<std::uint64_t>(flops / 5.33);
    std::uint64_t instr = fp_instr * 2;

    Phase init;
    init.name = "pack";
    init.instructions = static_cast<std::uint64_t>(n * n * 3.0);
    init.loadFrac = 0.35;
    init.storeFrac = 0.35;
    init.branchFrac = 0.08;
    init.baseIpc = 2.6;
    init.stallExposureScale = 0.1; // blocked packing streams
    init.mem = MemPatternSpec::sequential(matrix_bytes);

    Phase gemm;
    gemm.name = "dgemm";
    gemm.instructions = instr;
    gemm.loadFrac = 0.30;
    gemm.storeFrac = 0.05;
    gemm.branchFrac = 0.04;
    gemm.mulFrac = 0.25;
    gemm.fpFrac = 0.50;
    gemm.mispredictRate = 0.001;
    gemm.baseIpc = 3.5;
    gemm.flops = flops;
    // Cache blocking keeps nearly every access in a 256 KB tile.
    gemm.mem = MemPatternSpec::hotCold(256 * 1024, matrix_bytes,
                                       0.998, 0.08);

    return std::make_unique<PhaseWorkload>(
        "matmul-mkl", std::vector<Phase>{init, gemm}, base, rng);
}

} // namespace klebsim::workload
