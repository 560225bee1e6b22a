/**
 * @file
 * Fig. 4 reproduction: LINPACK's phase behaviour in hardware
 * performance counter samples collected by K-LEB (paper section
 * IV-A).
 *
 * The paper's figure shows, over time: near-zero user counts during
 * kernel-mode initialization, a LOAD/STORE surge while the matrix
 * is generated, then repeating load -> multiply -> store waves for
 * each solve block.  This bench prints the per-interval series and
 * verifies those landmarks.
 */

#include <cstdio>

#include "bench_util.hh"
#include "kernel/system.hh"
#include "kleb/session.hh"
#include "workload/linpack.hh"

using namespace klebsim;
using namespace klebsim::bench;
using namespace klebsim::ticks_literals;

int
main(int argc, char **argv)
{
    // This figure is one continuous time series from a single
    // simulated machine ("trials" here are LINPACK-internal solve
    // repetitions, not independent runs), so --jobs has nothing to
    // fan out; BenchArgs still validates it.
    BenchArgs args = BenchArgs::parse(argc, argv);
    int trials = args.runsOr(args.quick ? 2 : 10);

    workload::LinpackParams params;
    params.n = args.quick ? 600 : 1200;
    params.trials = static_cast<std::uint32_t>(trials);
    params.blocksPerTrial = 8;

    banner(csprintf("Fig. 4: LINPACK (N=%u, %u trials) counter "
                    "time series via K-LEB",
                    params.n, params.trials));

    kernel::System sys;
    auto linpack = workload::makeLinpack(params, 0x100000000ULL,
                                         sys.forkRng(42));
    kernel::Process *target =
        sys.kernel().createWorkload("linpack", linpack.get(), 0);

    kleb::Session::Options opts;
    opts.events = {hw::HwEvent::arithMul, hw::HwEvent::loadRetired,
                   hw::HwEvent::storeRetired,
                   hw::HwEvent::instRetired};
    // The paper used 10 ms for the full-size problem; scale the
    // period with the problem so the series keeps its resolution.
    opts.period = args.quick ? 100_us : 200_us;
    kleb::Session session(sys, opts);
    session.monitor(target);
    sys.run();

    stats::TimeSeries deltas = session.deltaSeries();
    auto muls = deltas.channel("ARITH_MUL");
    auto loads = deltas.channel("MEM_INST_RETIRED_LOADS");
    auto stores = deltas.channel("MEM_INST_RETIRED_STORES");

    std::printf("samples: %zu, interval: %.1f us\n\n",
                deltas.size(), deltas.meanInterval() / 1.0e6);

    // Compact rendering: per-event sparklines of the series.
    std::printf("%-10s |%s|\n", "ARITH_MUL", sparkline(muls, 60).c_str());
    std::printf("%-10s |%s|\n", "LOAD", sparkline(loads, 60).c_str());
    std::printf("%-10s |%s|\n", "STORE", sparkline(stores, 60).c_str());

    // Landmarks the paper calls out: (1) near-zero user counts in
    // the first samples (kernel-mode init); (2) a LOAD/STORE surge
    // with few multiplications while the matrix is generated;
    // (3) MUL-dominated computation afterwards.
    auto inst = deltas.channel("INST_RETIRED");
    double peak_mul = *std::max_element(muls.begin(), muls.end());
    double median_inst = [&] {
        std::vector<double> v = inst;
        std::sort(v.begin(), v.end());
        return v[v.size() / 2];
    }();

    // Init window: leading samples with almost no user activity.
    std::size_t init_end = 0;
    while (init_end < inst.size() &&
           inst[init_end] < 0.05 * median_inst)
        ++init_end;

    // Setup window: from there until MUL activity ramps up.
    std::size_t compute_start = init_end;
    while (compute_start < muls.size() &&
           muls[compute_start] < 0.10 * peak_mul)
        ++compute_start;

    auto rate = [](const std::vector<double> &v, std::size_t lo,
                   std::size_t hi) {
        double s = 0;
        std::size_t n_samples = 0;
        for (std::size_t i = lo; i < hi && i < v.size(); ++i) {
            s += v[i];
            ++n_samples;
        }
        return n_samples ? s / static_cast<double>(n_samples)
                         : 0.0;
    };
    double setup_store = rate(stores, init_end, compute_start);
    double compute_store =
        rate(stores, compute_start, stores.size());
    double setup_mul = rate(muls, init_end, compute_start);
    double compute_mul = rate(muls, compute_start, muls.size());

    std::printf("\nLandmarks (paper section IV-A):\n");
    std::printf("  kernel-mode init:   first %zu sample(s) show "
                "(almost) no user counts\n",
                init_end);
    std::printf("  setup STORE rate:   %.2fx the compute phases' "
                "(surge while generating the matrix)\n",
                setup_store / std::max(compute_store, 1.0));
    std::printf("  setup MUL rate:     %.2fx the compute phases' "
                "(only a small number of ARITH MUL)\n",
                setup_mul / std::max(compute_mul, 1.0));

    if (args.csv) {
        std::printf("\nsample,arith_mul,load,store\n");
        for (std::size_t i = 0; i < deltas.size(); ++i)
            std::printf("%zu,%.0f,%.0f,%.0f\n", i, muls[i],
                        loads[i], stores[i]);
    }
    return 0;
}
