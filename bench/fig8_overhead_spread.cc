/**
 * @file
 * Fig. 8 reproduction: box-and-whisker spread of normalized
 * execution time per collection tool (paper section V).
 *
 * The paper's observation: K-LEB not only has the lowest mean
 * overhead but also the smallest spread — it interferes with the
 * monitored process least and most consistently.
 */

#include <algorithm>
#include <cstdio>

#include "bench_util.hh"
#include "experiments/experiments.hh"

using namespace klebsim;
using namespace klebsim::bench;
using namespace klebsim::tools;

int
main(int argc, char **argv)
{
    BenchArgs args = BenchArgs::parse(argc, argv);
    int runs = args.runsOr(args.quick ? 5 : 20);

    banner(csprintf("Fig. 8: normalized execution-time spread, "
                    "matmul loop, %d runs/tool",
                    runs));

    Table table({"Tool", "Min", "Q1", "Median", "Q3", "Max",
                 "IQR", "Whisker span"});
    double kleb_iqr = -1;
    double min_other_iqr = 1e300;
    for (const experiments::SpreadRow &row :
         experiments::fig8(args.quick, runs, args.jobs)) {
        if (!row.box) {
            table.addRow({toolName(row.tool), "n/a"});
            continue;
        }
        const stats::FiveNumber &f = *row.box;
        if (row.tool == ToolKind::kleb)
            kleb_iqr = f.iqr();
        else if (row.tool != ToolKind::none)
            min_other_iqr = std::min(min_other_iqr, f.iqr());
        table.addRow({toolName(row.tool), toFixed(f.min, 4),
                      toFixed(f.q1, 4), toFixed(f.median, 4),
                      toFixed(f.q3, 4), toFixed(f.max, 4),
                      toFixed(f.iqr(), 4), toFixed(f.range(), 4)});
    }
    table.print();
    std::printf("\nShape check (paper): K-LEB's box is the "
                "tightest of the tools — IQR %.4f vs best other "
                "%.4f (%s).\n",
                kleb_iqr, min_other_iqr,
                kleb_iqr <= min_other_iqr ? "holds"
                                          : "does NOT hold");
    if (args.csv) {
        std::printf("\n");
        table.printCsv();
    }
    return 0;
}
