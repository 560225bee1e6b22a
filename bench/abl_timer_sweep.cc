/**
 * @file
 * Ablation: K-LEB overhead versus sampling period.
 *
 * The paper's section VI argues the usable limit is ~100 us: below
 * that, interrupt costs blow up; above it, overhead falls toward
 * the controller/drain floor.  This bench sweeps the period and
 * shows the knee, plus the achieved sample counts.
 */

#include <cstdio>

#include "bench_util.hh"
#include "experiments/experiments.hh"

using namespace klebsim;
using namespace klebsim::bench;

int
main(int argc, char **argv)
{
    BenchArgs args = BenchArgs::parse(argc, argv);
    int runs = args.runsOr(args.quick ? 2 : 5);

    banner("Ablation: K-LEB overhead vs sampling period "
           "(matmul loop)");

    Table table({"Period", "Overhead (%)", "Samples",
                 "Per-sample cost (us)"});
    for (const experiments::PeriodRow &row :
         experiments::timerSweep(args.quick, runs, args.jobs))
        table.addRow({csprintf("%8.0f us", ticksToUs(row.period)),
                      toFixed(row.overheadPct, 3),
                      std::to_string(row.samples),
                      toFixed(row.perSampleUs, 2)});
    table.print();
    std::printf("\nShape check (paper section VI): overhead grows "
                "sharply below the 100 us recommendation and "
                "flattens toward the drain floor at coarse "
                "periods.\n");
    return 0;
}
