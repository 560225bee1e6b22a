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
#include "tools/harness.hh"
#include "workload/matmul.hh"

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

RunConfig
baseConfig(const char *workload, bool quick)
{
    RunConfig cfg;
    std::uint32_t n = quick ? 640 : 1000;
    double flops = workload::matmulFlops({n});
    if (std::string(workload) == "mkl") {
        cfg.expectedInstructions =
            static_cast<std::uint64_t>(flops / 5.33 * 2.0);
        cfg.expectedLifetime =
            quick ? msToTicks(35) : msToTicks(120);
        cfg.workloadFactory = [n](Addr base, Random rng) {
            return workload::makeMatMulMkl({n}, base, rng);
        };
    } else {
        cfg.expectedInstructions =
            static_cast<std::uint64_t>(flops / 2.0 * 8.0);
        cfg.expectedLifetime =
            quick ? msToTicks(650) : secToTicks(2.45);
        cfg.workloadFactory = [n](Addr base, Random rng) {
            return workload::makeMatMulLoop({n}, base, rng);
        };
    }
    return cfg;
}

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
    RunConfig cfg = baseConfig(row.workload, quick);
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

    // One (row, trial) grid on independent simulated machines; the
    // extra fixed-seed trial per row is the probe the accuracy /
    // samples / period columns read.
    const std::size_t per_row =
        static_cast<std::size_t>(runs) + 1;
    std::vector<RunResult> results = runTrials(
        args.jobs, grid.size() * per_row, [&](std::size_t k) {
            const Row &row = grid[k / per_row];
            RunConfig cfg = rowConfig(row, args.quick);
            std::size_t trial = k % per_row;
            cfg.seed =
                trial == static_cast<std::size_t>(runs)
                    ? 1
                    : trialSeed(cfg.seed, k / per_row, trial);
            return runOnce(cfg);
        });

    // Per-workload baseline means, for the overhead column.
    std::vector<double> base_mean(grid.size(), 0.0);
    auto mean_secs = [&](std::size_t row_idx) {
        double sum = 0;
        for (int i = 0; i < runs; ++i)
            sum += results[row_idx * per_row +
                           static_cast<std::size_t>(i)]
                       .seconds;
        return sum / static_cast<double>(runs);
    };
    double current_base = 0.0;
    for (std::size_t r = 0; r < grid.size(); ++r) {
        if (std::string(grid[r].mode) == "baseline")
            current_base = mean_secs(r);
        base_mean[r] = current_base;
    }

    Table table({"workload", "mode", "config", "budget_pct",
                 "overhead_pct", "accuracy_err_pct", "samples",
                 "period_changes", "final_period_us", "mean_s"});
    std::vector<ParetoRow> pareto;
    for (std::size_t r = 0; r < grid.size(); ++r) {
        const Row &row = grid[r];
        double mean = mean_secs(r);
        const RunResult &probe =
            results[r * per_row + static_cast<std::size_t>(runs)];
        ParetoRow p{row.workload, row.mode, row.config,
                    row.budget * 100.0,
                    (mean - base_mean[r]) / base_mean[r] * 100.0,
                    accuracyErrPct(probe)};
        bool is_base = p.mode == "baseline";
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
