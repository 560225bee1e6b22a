/**
 * @file
 * Table III reproduction: overhead on the Intel MKL dgemm matmul —
 * a <100 ms program where fixed tool setup costs dominate (paper
 * section V).
 *
 * Paper values: K-LEB 1.13 %, perf stat 7.64 %, perf record 2.00 %,
 * PAPI 21.40 %, LiMiT n/a (unsupported OS/kernel).
 */

#include <cstdio>

#include "bench_util.hh"
#include "experiments/experiments.hh"

using namespace klebsim;
using namespace klebsim::bench;
using namespace klebsim::tools;

namespace
{

constexpr double paperOverhead[] = {0.0, 1.13, 7.64, 2.00, 21.40,
                                    -1.0};

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = BenchArgs::parse(argc, argv);
    int runs = args.runsOr(args.quick ? 5 : 25);

    banner("Table III: Intel MKL dgemm overhead @ 10 ms (" +
           std::to_string(runs) + " runs/tool)");

    Table table({"Profiling Tool", "Mean time (ms)",
                 "Overhead (%)", "Paper (%)"});
    const auto rows = experiments::table3(args.quick, runs, args.jobs);
    for (std::size_t t = 0; t < rows.size(); ++t) {
        const experiments::OverheadRow &row = rows[t];
        if (!row.supported) {
            table.addRow({toolName(row.tool), "n/a", "n/a", "n/a"});
            continue;
        }
        table.addRow(
            {toolName(row.tool), toFixed(row.meanSeconds * 1000.0, 2),
             row.tool == ToolKind::none
                 ? "-"
                 : toFixed(row.overheadPct, 2),
             paperOverhead[t] < 0 ? "n/a"
                                  : toFixed(paperOverhead[t], 2)});
    }

    table.print();
    std::printf("\nNote: LiMiT cannot attach (kernel lacks its "
                "patch), matching the paper's missing entry.\n");
    if (args.csv) {
        std::printf("\n");
        table.printCsv();
    }
    return 0;
}
