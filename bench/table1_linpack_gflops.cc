/**
 * @file
 * Table I reproduction: LINPACK GFLOPS under each profiling tool
 * (paper section IV-A).
 *
 * Paper values (N=5000, 10 trials, 10 ms sample rate):
 *   no profiling 37.24 GFLOPS, K-LEB 37.00 (0.64 % loss),
 *   perf stat 34.78 (7.08 %), perf record 36.89 (0.96 %).
 *
 * The default problem size is scaled down (N=1200) so the sweep
 * completes quickly; GFLOPS sensitivity to monitoring disturbance
 * is duration-relative and unaffected (DESIGN.md section 7).
 */

#include <cstdio>

#include "bench_util.hh"
#include "experiments/experiments.hh"

using namespace klebsim;
using namespace klebsim::bench;
using namespace klebsim::tools;

namespace
{

constexpr double paperGflops[] = {37.24, 37.00, 34.78, 36.89};
constexpr double paperLoss[] = {0.0, 0.64, 7.08, 0.96};

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = BenchArgs::parse(argc, argv);
    int runs = args.runsOr(args.quick ? 2 : 10);
    const workload::LinpackParams params =
        experiments::table1Params(args.quick);

    banner(csprintf("Table I: LINPACK (N=%u, %u trials) GFLOPS "
                    "across profiling tools, %d runs each",
                    params.n, params.trials, runs));

    Table table({"Profiling Tool", "GFLOPS", "Perf loss (%)",
                 "Paper GFLOPS", "Paper loss (%)"});
    const auto rows = experiments::table1(args.quick, runs, args.jobs);
    for (std::size_t t = 0; t < rows.size(); ++t) {
        const experiments::GflopsRow &row = rows[t];
        table.addRow({toolName(row.tool), toFixed(row.gflops, 2),
                      row.tool == ToolKind::none
                          ? "0"
                          : toFixed(row.lossPct, 2),
                      toFixed(paperGflops[t], 2),
                      toFixed(paperLoss[t], 2)});
    }
    table.print();
    std::printf("\nShape check: K-LEB's loss is small and close to "
                "perf record's; perf stat loses several percent.\n");
    if (args.csv) {
        std::printf("\n");
        table.printCsv();
    }
    return 0;
}
