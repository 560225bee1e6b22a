#include <iterator>

#include "bench_support/trial_pool.hh"
#include "experiments/experiments.hh"
#include "workload/matmul.hh"

namespace klebsim::experiments
{

using tools::RunConfig;
using tools::RunResult;
using tools::ToolKind;

namespace
{

double
meanOf(const std::vector<double> &v)
{
    double sum = 0;
    for (double x : v)
        sum += x;
    return sum / static_cast<double>(v.size());
}

/** @p cfg under each of @p kinds; a tool's trials are salted by it. */
std::vector<std::vector<RunResult>>
toolGrid(const RunConfig &cfg, const std::vector<ToolKind> &kinds,
         int runs, bool probe, unsigned jobs)
{
    std::vector<RunConfig> cells;
    std::vector<std::uint64_t> salts;
    for (ToolKind tool : kinds) {
        cells.push_back(cfg);
        cells.back().tool = tool;
        salts.push_back(static_cast<std::uint64_t>(tool));
    }
    return runGrid(cells, salts, runs, probe, jobs);
}

/** The triple-nested-loop matmul of size @p n, at 10 ms. */
RunConfig
matmulLoopConfig(std::uint32_t n)
{
    RunConfig cfg;
    cfg.expectedInstructions = static_cast<std::uint64_t>(
        workload::matmulFlops({n}) / 2.0 * 8.0);
    cfg.workloadFactory = [n](Addr base, Random rng) {
        return workload::makeMatMulLoop({n}, base, rng);
    };
    return cfg;
}

/** Tables II and III: each tool's mean run time against none's. */
std::vector<OverheadRow>
overheadRows(const RunConfig &cfg, int runs, bool probe, unsigned jobs)
{
    const std::vector<ToolKind> &kinds = tools::allTools();
    const auto grid = toolGrid(cfg, kinds, runs, probe, jobs);
    std::vector<double> baseline;
    std::vector<OverheadRow> rows;
    for (std::size_t t = 0; t < kinds.size(); ++t) {
        OverheadRow &row = rows.emplace_back();
        row.tool = kinds[t];
        const std::vector<double> secs =
            supportedSeconds(grid[t], runs);
        row.supported = !secs.empty();
        if (!row.supported)
            continue;
        if (row.tool == ToolKind::none)
            baseline = secs;
        else
            row.overheadPct = tools::overheadPct(secs, baseline);
        row.meanSeconds = meanOf(secs);
        if (probe)
            row.samples = grid[t].back().samples;
    }
    return rows;
}

} // namespace

std::vector<std::vector<RunResult>>
runGrid(const std::vector<RunConfig> &cells,
        const std::vector<std::uint64_t> &salts, int runs, bool probe,
        unsigned jobs)
{
    const auto n_runs = static_cast<std::size_t>(runs);
    const std::size_t per_cell = n_runs + (probe ? 1 : 0);
    bench::TrialPool pool(jobs);
    std::vector<RunResult> flat =
        pool.map(cells.size() * per_cell, [&](std::size_t k) {
            RunConfig cfg = cells[k / per_cell];
            const std::size_t trial = k % per_cell;
            cfg.seed = trial == n_runs
                           ? 1
                           : bench::trialSeed(
                                 cfg.seed, salts[k / per_cell], trial);
            return tools::runOnce(cfg);
        });
    std::vector<std::vector<RunResult>> grid;
    for (auto it = flat.begin(); it != flat.end(); it += per_cell)
        grid.emplace_back(std::make_move_iterator(it),
                          std::make_move_iterator(it + per_cell));
    return grid;
}

std::vector<double>
supportedSeconds(const std::vector<RunResult> &cell, int runs)
{
    std::vector<double> secs;
    for (int i = 0; i < runs; ++i) {
        const RunResult &r = cell[static_cast<std::size_t>(i)];
        if (!r.supported)
            return {};
        secs.push_back(r.seconds);
    }
    return secs;
}

workload::LinpackParams
table1Params(bool quick)
{
    workload::LinpackParams params;
    params.n = quick ? 600 : 1200;
    params.trials = quick ? 3 : 10;
    return params;
}

std::vector<GflopsRow>
table1(bool quick, int runs, unsigned jobs)
{
    const workload::LinpackParams params = table1Params(quick);
    RunConfig cfg;
    cfg.expectedLifetime = quick ? msToTicks(40) : msToTicks(330);
    cfg.expectedInstructions = static_cast<std::uint64_t>(
        workload::linpackFlops(params) / 10.0);
    cfg.events = {hw::HwEvent::arithMul, hw::HwEvent::loadRetired,
                  hw::HwEvent::storeRetired,
                  hw::HwEvent::instRetired};
    cfg.workloadFactory = [params](Addr base, Random rng) {
        return workload::makeLinpack(params, base, rng);
    };

    // The paper's Table I covers none / K-LEB / perf stat / record.
    const std::vector<ToolKind> kinds = {
        ToolKind::none, ToolKind::kleb, ToolKind::perfStat,
        ToolKind::perfRecord};
    const auto grid = toolGrid(cfg, kinds, runs, false, jobs);
    std::vector<GflopsRow> rows;
    double raw_gflops = 0;
    for (std::size_t t = 0; t < kinds.size(); ++t) {
        double gflops = 0;
        for (const RunResult &r : grid[t])
            gflops += workload::linpackGflops(params, r.lifetime);
        gflops /= runs;
        if (kinds[t] == ToolKind::none)
            raw_gflops = gflops;
        rows.push_back({kinds[t], gflops,
                        (raw_gflops - gflops) / raw_gflops * 100.0});
    }
    return rows;
}

RunConfig
table2Config(bool quick)
{
    RunConfig cfg = matmulLoopConfig(quick ? 640 : 1000);
    cfg.expectedLifetime =
        quick ? msToTicks(650) : secToTicks(2.45);
    return cfg;
}

RunConfig
table3Config(bool quick)
{
    RunConfig cfg;
    const std::uint32_t n = quick ? 640 : 1000;
    cfg.expectedInstructions = static_cast<std::uint64_t>(
        workload::matmulFlops({n}) / 5.33 * 2.0);
    cfg.expectedLifetime = quick ? msToTicks(35) : msToTicks(120);
    cfg.workloadFactory = [n](Addr base, Random rng) {
        return workload::makeMatMulMkl({n}, base, rng);
    };
    // The MKL testbed runs a kernel without the LiMiT patch
    // (paper: "unsupported OS and kernel version for LiMiT").
    cfg.limitPatchAvailable = false;
    return cfg;
}

std::vector<OverheadRow>
table2(bool quick, int runs, unsigned jobs)
{
    return overheadRows(table2Config(quick), runs, true, jobs);
}

std::vector<OverheadRow>
table3(bool quick, int runs, unsigned jobs)
{
    return overheadRows(table3Config(quick), runs, false, jobs);
}

std::vector<SpreadRow>
fig8(bool quick, int runs, unsigned jobs)
{
    RunConfig cfg = matmulLoopConfig(quick ? 500 : 1000);
    cfg.expectedLifetime =
        quick ? msToTicks(310) : secToTicks(2.45);
    const std::vector<ToolKind> &kinds = tools::allTools();
    const auto grid = toolGrid(cfg, kinds, runs, false, jobs);

    const double base_mean = meanOf(supportedSeconds(grid[0], runs));
    std::vector<SpreadRow> rows;
    for (std::size_t t = 0; t < kinds.size(); ++t) {
        SpreadRow &row = rows.emplace_back();
        row.tool = kinds[t];
        std::vector<double> normalized;
        for (double s : supportedSeconds(grid[t], runs))
            normalized.push_back(s / base_mean);
        if (!normalized.empty())
            row.box = stats::fiveNumber(normalized);
    }
    return rows;
}

std::vector<PeriodRow>
timerSweep(bool quick, int runs, unsigned jobs)
{
    const RunConfig cfg = matmulLoopConfig(quick ? 500 : 800);
    const Tick periods[] = {
        usToTicks(25),  usToTicks(50),  usToTicks(100),
        usToTicks(250), usToTicks(500), msToTicks(1),
        msToTicks(10),  msToTicks(100)};

    // The baseline needs no probe; each period's probe counts its
    // samples.
    const std::vector<double> baseline = supportedSeconds(
        toolGrid(cfg, {ToolKind::none}, runs, false, jobs)[0], runs);
    const double base_mean = meanOf(baseline);
    std::vector<RunConfig> cells;
    for (Tick period : periods) {
        cells.push_back(cfg);
        cells.back().tool = ToolKind::kleb;
        cells.back().period = period;
    }
    const auto grid = runGrid(
        cells,
        std::vector<std::uint64_t>(
            cells.size(), static_cast<std::uint64_t>(ToolKind::kleb)),
        runs, true, jobs);

    std::vector<PeriodRow> rows;
    for (std::size_t p = 0; p < cells.size(); ++p) {
        const double overhead = tools::overheadPct(
            supportedSeconds(grid[p], runs), baseline);
        const std::size_t samples = grid[p].back().samples;
        rows.push_back(
            {cells[p].period, overhead, samples,
             samples ? (overhead / 100.0) * base_mean * 1e6 /
                           static_cast<double>(samples)
                     : 0.0});
    }
    return rows;
}

} // namespace klebsim::experiments
