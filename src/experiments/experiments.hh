/**
 * @file
 * The paper's experiments as functions that return typed rows.
 *
 * Each computation that a bench and another bench or example share
 * lives here once: the tool x trial grid behind Tables I-III, Fig. 8
 * and the ablations, the Meltdown victim behind Figs. 6-7, and the
 * container probe behind Fig. 5.  The benches in bench/ render the
 * rows and check their claims; nothing here prints.
 *
 * A function takes what its bench reads from the command line:
 * `quick` for the CI-sized problem, the resolved trial count `runs`,
 * and `jobs` worker threads.  The rows do not depend on `jobs`.
 */

#ifndef KLEBSIM_EXPERIMENTS_EXPERIMENTS_HH
#define KLEBSIM_EXPERIMENTS_EXPERIMENTS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "stats/summary.hh"
#include "stats/time_series.hh"
#include "tools/harness.hh"
#include "workload/docker.hh"
#include "workload/linpack.hh"

namespace klebsim::experiments
{

/**
 * Run a grid of independent trials on @p jobs workers.  Trial i <
 * @p runs of cell c runs cells[c] at seed
 * trialSeed(cells[c].seed, salts[c], i); with @p probe, each cell
 * gets one more trial at seed 1, the probe whose samples a table
 * reports.
 * @return one vector per cell: its trials in order, then the probe.
 */
std::vector<std::vector<tools::RunResult>>
runGrid(const std::vector<tools::RunConfig> &cells,
        const std::vector<std::uint64_t> &salts, int runs, bool probe,
        unsigned jobs);

/**
 * Run times of the first @p runs trials of one grid cell; empty
 * unless every one of them ran (LiMiT cannot attach everywhere).
 */
std::vector<double>
supportedSeconds(const std::vector<tools::RunResult> &cell, int runs);

/** Table I's LINPACK problem. */
workload::LinpackParams table1Params(bool quick);

/** One tool's row of Table I. */
struct GflopsRow
{
    tools::ToolKind tool = tools::ToolKind::none;
    double gflops = 0.0;  //!< mean over the trials
    double lossPct = 0.0; //!< against the unmonitored row
};

/** Table I: LINPACK GFLOPS under none, K-LEB and perf stat/record. */
std::vector<GflopsRow> table1(bool quick, int runs, unsigned jobs);

/** One run of Table II's matmul loop at 10 ms (tool unset). */
tools::RunConfig table2Config(bool quick);

/** One run of Table III's MKL dgemm, on a kernel without LiMiT. */
tools::RunConfig table3Config(bool quick);

/** One tool's row of Table II or III. */
struct OverheadRow
{
    tools::ToolKind tool = tools::ToolKind::none;
    bool supported = false; //!< every trial ran; else the row is n/a
    double meanSeconds = 0.0;
    double overheadPct = 0.0; //!< against the unmonitored row
    std::size_t samples = 0;  //!< the probe's (Table II only)
};

/** Table II: every tool's overhead on the matmul loop. */
std::vector<OverheadRow> table2(bool quick, int runs, unsigned jobs);

/** Table III: every tool's overhead on the MKL dgemm. */
std::vector<OverheadRow> table3(bool quick, int runs, unsigned jobs);

/** One tool's box of Fig. 8. */
struct SpreadRow
{
    tools::ToolKind tool = tools::ToolKind::none;
    /** Run times over the unmonitored mean; none: cannot run. */
    std::optional<stats::FiveNumber> box;
};

/** Fig. 8: the spread of each tool's matmul run time. */
std::vector<SpreadRow> fig8(bool quick, int runs, unsigned jobs);

/** One period of the K-LEB sampling-period sweep. */
struct PeriodRow
{
    Tick period = 0;
    double overheadPct = 0.0;
    std::size_t samples = 0; //!< the probe's
    double perSampleUs = 0.0; //!< overhead time per probe sample
};

/** K-LEB's overhead on the matmul loop from 25 us to 100 ms. */
std::vector<PeriodRow> timerSweep(bool quick, int runs, unsigned jobs);

/** One run of the Meltdown victim under K-LEB at 100 us. */
struct VictimRun
{
    hw::EventVector totals{}; //!< final counts
    /** INST_RETIRED, LLC_REFERENCE and LLC_MISSES per interval. */
    stats::TimeSeries deltas{
        {"INST_RETIRED", "LLC_REFERENCE", "LLC_MISSES"}};
    std::size_t samples = 0;
    Tick lifetime = 0;
    std::string recovered; //!< the secret the attack leaked
};

/**
 * The secret-printing program on a fresh i7-920 built from
 * @p seed, or with @p attack the Meltdown attack retrying each
 * byte @p retries times.
 */
VictimRun meltdownVictim(bool attack, std::uint64_t seed,
                         std::uint32_t retries);

/** One program's LLC counts in Fig. 6, averaged over rounds. */
struct LlcAverages
{
    double llcRef = 0.0;
    double llcMiss = 0.0;
    double mpki = 0.0;
    double ms = 0.0;
    std::size_t samples = 0;
};

/** Fig. 6: the clean and the attacked program. */
struct Fig6
{
    LlcAverages clean, attacked;
};

Fig6 fig6(bool quick, int rounds, unsigned jobs);

/** Fig. 7: one clean and one attacked run. */
struct Fig7
{
    VictimRun clean, attacked;
};

Fig7 fig7(bool quick, unsigned jobs);

/**
 * LLC MPKI of container image @p spec cut to @p instructions, on a
 * fresh @p machine built from @p seed: K-LEB at 1 ms monitors the
 * shim, which traces the entrypoint as its child.
 */
double imageMpki(const hw::MachineConfig &machine,
                 const workload::DockerImageSpec &spec,
                 std::uint64_t instructions, std::uint64_t seed);

/** One image's row of Fig. 5. */
struct ImageRow
{
    std::string name;
    double mpkiI7 = 0.0;
    double mpkiXeon = 0.0;
    bool expectMemoryIntensive = false; //!< the paper's class
};

/** Fig. 5: every catalog image on the i7-920 and the Xeon. */
std::vector<ImageRow> fig5(bool quick, unsigned jobs);

} // namespace klebsim::experiments

#endif // KLEBSIM_EXPERIMENTS_EXPERIMENTS_HH
