/**
 * @file
 * Sampling-rate selection under an overhead budget.
 *
 * The paper's closing advice: "it is up to the users to determine
 * at what level they want to monitor, given the trade-off between
 * overhead and the granularity of samples."  This example automates
 * that choice: given an overhead budget, it reads the K-LEB period
 * sweep (the timer-sweep ablation's rows, at its CI size) and
 * recommends the finest period that fits the budget.
 */

#include <cstdio>
#include <cstdlib>

#include "bench_support/trial_pool.hh"
#include "experiments/experiments.hh"

using namespace klebsim;

int
main(int argc, char **argv)
{
    double budget_pct = argc > 1 ? std::atof(argv[1]) : 2.0;
    std::printf("overhead budget: %.2f%%\n\n", budget_pct);

    std::printf("%12s %14s %10s\n", "period", "overhead (%)",
                "fits?");
    Tick best = 0;
    double best_overhead = 0;
    for (const experiments::PeriodRow &row : experiments::timerSweep(
             true, 2, bench::TrialPool::defaultJobs())) {
        bool fits = row.overheadPct <= budget_pct;
        std::printf("%9.0f us %14.3f %10s\n", ticksToUs(row.period),
                    row.overheadPct, fits ? "yes" : "no");
        if (fits && best == 0) { // periods listed finest-first
            best = row.period;
            best_overhead = row.overheadPct;
        }
    }

    if (best) {
        std::printf("\nrecommended: sample every %.0f us "
                    "(measured %.2f%% <= %.2f%% budget)\n",
                    ticksToUs(best), best_overhead, budget_pct);
        std::printf("that is %.0fx finer than perf stat's 10 ms "
                    "floor.\n",
                    static_cast<double>(msToTicks(10)) /
                        static_cast<double>(best));
    } else {
        std::printf("\nno probed rate fits the budget; coarsen "
                    "beyond 100 ms or relax the budget.\n");
    }
    return 0;
}
