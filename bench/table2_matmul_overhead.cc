/**
 * @file
 * Table II reproduction: run-time overhead of each monitoring tool
 * on the triple-nested-loop matrix multiplication (paper section V).
 *
 * Paper values (i7-920, 10 ms sample rate, 100 runs):
 *   K-LEB 0.68 %, perf stat 6.01 %, perf record ~1.65 %,
 *   PAPI 6.43 %, LiMiT 4.08 %; K-LEB is >= 58.8 % below the next
 *   best tool.
 */

#include <algorithm>
#include <cstdio>

#include "bench_util.hh"
#include "experiments/experiments.hh"

using namespace klebsim;
using namespace klebsim::bench;
using namespace klebsim::tools;

namespace
{

/** Paper reference overheads, in table order after baseline. */
constexpr double paperOverhead[] = {0.0, 0.68, 6.01, 1.65, 6.43,
                                    4.08};

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = BenchArgs::parse(argc, argv);
    int runs = args.runsOr(args.quick ? 3 : 15);

    banner("Table II: triple-nested-loop matmul overhead @ 10 ms "
           "(" + std::to_string(runs) + " runs/tool)");

    Table table({"Profiling Tool", "Mean time (s)", "Overhead (%)",
                 "Paper (%)", "Samples"});
    double kleb_overhead = 0, best_other = 1e9;
    const auto rows = experiments::table2(args.quick, runs, args.jobs);
    for (std::size_t t = 0; t < rows.size(); ++t) {
        const experiments::OverheadRow &row = rows[t];
        if (!row.supported) {
            table.addRow({toolName(row.tool), "n/a", "n/a", "-", "-"});
            continue;
        }
        if (row.tool == ToolKind::kleb)
            kleb_overhead = row.overheadPct;
        else if (row.tool != ToolKind::none)
            best_other = std::min(best_other, row.overheadPct);
        table.addRow({toolName(row.tool), toFixed(row.meanSeconds, 4),
                      row.tool == ToolKind::none
                          ? "-"
                          : toFixed(row.overheadPct, 2),
                      toFixed(paperOverhead[t], 2),
                      std::to_string(row.samples)});
    }

    table.print();
    double reduction =
        (1.0 - kleb_overhead / best_other) * 100.0;
    std::printf("\nK-LEB vs next-best tool: %.1f%% lower overhead "
                "(paper: 58.8%%)\n",
                reduction);
    if (args.csv) {
        std::printf("\n");
        table.printCsv();
    }
    return 0;
}
