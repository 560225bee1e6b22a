/**
 * @file
 * Ablation: accuracy-vs-overhead Pareto frontier of adaptive
 * sampling.  Runs the table II matmul and the table III MKL dgemm
 * under (a) fixed timer periods and (b) the RateGovernor with a
 * range of overhead budgets, and reports one Pareto row per
 * configuration: measured overhead against the unmonitored
 * baseline, counter accuracy against ground truth, sample volume,
 * and where the governor's period settled.
 *
 * The bench checks its own claims (budgetClaims in claims.hh): each
 * broken one goes to stderr as `CLAIM FAILED: ...` and the exit code
 * is 1.
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "claims.hh"
#include "experiments/experiments.hh"

using namespace klebsim;
using namespace klebsim::bench;
using namespace klebsim::tools;

namespace
{

/** One Pareto-row configuration. */
struct Row
{
    const char *workload;  //!< "matmul" or "mkl"
    const char *mode;      //!< "baseline", "fixed", "adaptive"
    const char *config;    //!< period label or budget label
    Tick period;           //!< fixed period / adaptive start
    double budget;         //!< overhead budget fraction (adaptive)
};

const std::vector<Row> &
rows()
{
    static const std::vector<Row> r = {
        {"matmul", "baseline", "-", 0, 0.0},
        {"matmul", "fixed", "100us", usToTicks(100), 0.0},
        {"matmul", "fixed", "1ms", msToTicks(1), 0.0},
        {"matmul", "fixed", "10ms", msToTicks(10), 0.0},
        {"matmul", "adaptive", "b0.5", usToTicks(100), 0.005},
        {"matmul", "adaptive", "b1.0", usToTicks(100), 0.01},
        {"matmul", "adaptive", "b2.0", usToTicks(100), 0.02},
        {"mkl", "baseline", "-", 0, 0.0},
        {"mkl", "fixed", "100us", usToTicks(100), 0.0},
        {"mkl", "fixed", "1ms", msToTicks(1), 0.0},
        {"mkl", "fixed", "10ms", msToTicks(10), 0.0},
        {"mkl", "adaptive", "b0.5", usToTicks(100), 0.005},
        {"mkl", "adaptive", "b1.0", usToTicks(100), 0.01},
        {"mkl", "adaptive", "b2.0", usToTicks(100), 0.02},
    };
    return r;
}

RunConfig
rowConfig(const Row &row, bool quick)
{
    RunConfig cfg = std::string(row.workload) == "mkl"
                        ? experiments::table3Config(quick)
                        : experiments::table2Config(quick);
    if (std::string(row.mode) == "baseline") {
        cfg.tool = ToolKind::none;
        return cfg;
    }
    cfg.tool = ToolKind::kleb;
    cfg.period = row.period;
    if (std::string(row.mode) == "adaptive") {
        cfg.adaptive = true;
        cfg.overheadBudget = row.budget;
    }
    return cfg;
}

/** Percent count error of the probe run's first event vs truth. */
double
accuracyErrPct(const RunResult &probe)
{
    if (probe.totals.empty())
        return 0.0;
    double truth = static_cast<double>(
        at(probe.trueTotals, hw::HwEvent::instRetired));
    if (truth <= 0.0)
        return 0.0;
    double got = static_cast<double>(probe.totals[0]);
    return std::fabs(got - truth) / truth * 100.0;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = BenchArgs::parse(argc, argv);
    int runs = args.runsOr(args.quick ? 3 : 10);
    const std::vector<Row> &grid = rows();

    banner("Ablation: adaptive-sampling overhead budget Pareto (" +
           std::to_string(runs) + " runs/config)");

    // One (row, trial) grid on independent simulated machines,
    // salted by the row; the extra fixed-seed trial per row is the
    // probe the accuracy / samples / period columns read.
    std::vector<RunConfig> cells;
    std::vector<std::uint64_t> salts;
    for (std::size_t r = 0; r < grid.size(); ++r) {
        cells.push_back(rowConfig(grid[r], args.quick));
        salts.push_back(r);
    }
    const auto results =
        experiments::runGrid(cells, salts, runs, true, args.jobs);

    Table table({"workload", "mode", "config", "budget_pct",
                 "overhead_pct", "accuracy_err_pct", "samples",
                 "period_changes", "final_period_us", "mean_s"});
    std::vector<ParetoRow> pareto;
    // Each workload's baseline row comes first and sets the mean
    // its other rows' overheads are measured against.
    double base_mean = 0.0;
    for (std::size_t r = 0; r < grid.size(); ++r) {
        const Row &row = grid[r];
        double mean = 0;
        for (double s : experiments::supportedSeconds(results[r], runs))
            mean += s;
        mean /= static_cast<double>(runs);
        bool is_base = std::string(row.mode) == "baseline";
        if (is_base)
            base_mean = mean;
        const RunResult &probe = results[r].back();
        ParetoRow p{row.workload, row.mode, row.config,
                    row.budget * 100.0,
                    (mean - base_mean) / base_mean * 100.0,
                    accuracyErrPct(probe)};
        double final_us =
            static_cast<double>(probe.klebStatus.currentPeriod) /
            1e6;
        table.addRow(
            {row.workload, row.mode, row.config,
             is_base ? "-" : toFixed(p.budgetPct, 2),
             is_base ? "-" : toFixed(p.overheadPct, 3),
             is_base ? "-" : toFixed(p.accuracyErrPct, 4),
             std::to_string(probe.samples),
             std::to_string(probe.klebStatus.periodChanges),
             toFixed(final_us, 1), toFixed(mean, 4)});
        pareto.push_back(std::move(p));
    }

    table.print();
    std::printf("\nAdaptive rows start at the 100 us floor; the "
                "governor backs off until the\nEWMA overhead "
                "estimate sits inside its hysteresis band.\n");
    if (args.csv) {
        std::printf("\n");
        table.printCsv();
    }
    return reportClaims(budgetClaims(pareto));
}
