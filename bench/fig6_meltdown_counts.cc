/**
 * @file
 * Fig. 6 reproduction: average LLC references and misses of the
 * secret-printing program with and without the Meltdown attack
 * attached (paper section IV-C), averaged over repeated rounds.
 *
 * Under attack, Flush+Reload hammers the cache: both LLC counts
 * rise sharply, and MPKI jumps from ~7.5 to ~27.5.
 */

#include <cstdio>

#include "bench_util.hh"
#include "experiments/experiments.hh"

using namespace klebsim;
using namespace klebsim::bench;

int
main(int argc, char **argv)
{
    BenchArgs args = BenchArgs::parse(argc, argv);
    // The paper averaged 100 program rounds.
    int rounds = args.runsOr(args.quick ? 5 : 100);

    banner(csprintf("Fig. 6: Meltdown vs clean program, averaged "
                    "over %d rounds (K-LEB @ 100 us)",
                    rounds));

    const auto [clean, attacked] =
        experiments::fig6(args.quick, rounds, args.jobs);

    Table table({"Program", "LLC refs", "LLC misses", "MPKI",
                 "Runtime (ms)", "Samples"});
    table.addRow({"without Meltdown", toFixed(clean.llcRef, 0),
                  toFixed(clean.llcMiss, 0), toFixed(clean.mpki, 2),
                  toFixed(clean.ms, 2),
                  std::to_string(clean.samples)});
    table.addRow({"with Meltdown", toFixed(attacked.llcRef, 0),
                  toFixed(attacked.llcMiss, 0),
                  toFixed(attacked.mpki, 2), toFixed(attacked.ms, 2),
                  std::to_string(attacked.samples)});
    table.print();

    std::printf("\nPaper: MPKI 7.52 (clean) -> 27.53 (attack); "
                "LLC refs/misses far higher under attack.\n");
    std::printf("Measured ratios: refs x%.1f, misses x%.1f, "
                "MPKI %.2f -> %.2f\n",
                attacked.llcRef / clean.llcRef,
                attacked.llcMiss / clean.llcMiss, clean.mpki,
                attacked.mpki);
    if (args.csv) {
        std::printf("\n");
        table.printCsv();
    }
    return 0;
}
