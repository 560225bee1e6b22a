/**
 * @file
 * Fig. 7 reproduction: Meltdown vs non-Meltdown 100 us time series
 * via K-LEB (paper section IV-C).
 *
 * The clean program finishes in <10 ms, so a 10 ms tool (perf stat)
 * yields at most one data point; K-LEB's 100 us series localizes
 * the attack's onset as an LLC-miss-ratio spike, early in the run.
 */

#include <algorithm>
#include <cstdio>

#include "bench_util.hh"
#include "experiments/experiments.hh"
#include "tools/perf.hh"

using namespace klebsim;
using namespace klebsim::bench;

namespace
{

void
printSeries(const char *name, const experiments::VictimRun &res)
{
    auto misses = res.deltas.channel("LLC_MISSES");
    auto refs = res.deltas.channel("LLC_REFERENCE");
    double total_refs = 0, total_misses = 0;
    for (double v : refs)
        total_refs += v;
    for (double v : misses)
        total_misses += v;
    std::printf("%-18s %4zu samples, %6.2f ms | LLC miss series "
                "|%s|\n",
                name, misses.size(), ticksToMs(res.lifetime),
                sparkline(misses, 64).c_str());
    std::printf("%-18s refs=%.0f misses=%.0f miss/ref=%.2f\n", "",
                total_refs, total_misses,
                total_misses / std::max(total_refs, 1.0));
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = BenchArgs::parse(argc, argv);

    banner("Fig. 7: Meltdown vs non-Meltdown via K-LEB @ 100 us");

    const auto [clean, attacked] = experiments::fig7(args.quick, args.jobs);

    printSeries("without Meltdown", clean);
    printSeries("with Meltdown", attacked);

    std::printf("\nside channel: attacker recovered \"%s\"\n",
                attacked.recovered.c_str());

    // How many samples would perf stat's 10 ms floor have yielded
    // on the clean program?
    std::size_t perf_samples = static_cast<std::size_t>(
        clean.lifetime / tools::PerfStatSession::minInterval);
    std::printf("\nperf stat @ its 10 ms floor would capture %zu "
                "interval(s) of the clean program (K-LEB: %zu "
                "samples).\n",
                perf_samples, clean.deltas.size());

    // Point of attack: first sample whose per-interval MPKI is 3x
    // the clean average.
    auto inst = attacked.deltas.channel("INST_RETIRED");
    auto misses = attacked.deltas.channel("LLC_MISSES");
    auto clean_inst = clean.deltas.channel("INST_RETIRED");
    auto clean_misses = clean.deltas.channel("LLC_MISSES");
    double clean_mpki_avg = 0;
    for (std::size_t i = 0; i < clean_inst.size(); ++i)
        clean_mpki_avg +=
            stats::mpki(clean_misses[i],
                        std::max(clean_inst[i], 1.0));
    clean_mpki_avg /= std::max<std::size_t>(clean_inst.size(), 1);
    for (std::size_t i = 0; i < inst.size(); ++i) {
        double mpki =
            stats::mpki(misses[i], std::max(inst[i], 1.0));
        if (mpki > 3.0 * clean_mpki_avg) {
            std::printf("point of attack detected at sample %zu "
                        "(t=%.2f ms), interval MPKI %.1f vs clean "
                        "avg %.1f\n",
                        i,
                        ticksToMs(attacked.deltas.timeAt(i) -
                                  attacked.deltas.timeAt(0)),
                        mpki, clean_mpki_avg);
            break;
        }
    }

    if (args.csv) {
        std::printf("\nsample,inst,llc_ref,llc_miss\n");
        auto refs = attacked.deltas.channel("LLC_REFERENCE");
        for (std::size_t i = 0; i < attacked.deltas.size(); ++i)
            std::printf("%zu,%.0f,%.0f,%.0f\n", i, inst[i],
                        refs[i], misses[i]);
    }
    return 0;
}
