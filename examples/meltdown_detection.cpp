/**
 * @file
 * Online Meltdown detection from 100 us counter streams (paper
 * case study IV-C; the paper notes K-LEB's series "gives it the
 * potential to be used for hardware event based anomaly
 * detection" — this example builds that detector).
 *
 * A baseline run of the clean program calibrates a per-interval
 * MPKI threshold; the detector then flags any run whose stream
 * crosses it for several consecutive samples, reporting detection
 * latency from attack onset.  A 10 ms tool cannot do this: the
 * clean program finishes inside one of its intervals.  Exits 1 if
 * the detector flags a clean run or misses an attacked one.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "experiments/experiments.hh"

using namespace klebsim;

namespace
{

/** Per-interval MPKI of one run of the victim. */
std::vector<double>
intervalMpki(const experiments::VictimRun &run)
{
    auto inst = run.deltas.channel("INST_RETIRED");
    auto miss = run.deltas.channel("LLC_MISSES");
    std::vector<double> mpki;
    for (std::size_t i = 0; i < inst.size(); ++i)
        mpki.push_back(stats::mpki(miss[i], std::max(inst[i], 1.0)));
    return mpki;
}

/** Flag when `consecutive` samples exceed the threshold. */
int
detect(const std::vector<double> &mpki, double threshold,
       int consecutive)
{
    int streak = 0;
    for (std::size_t i = 0; i < mpki.size(); ++i) {
        streak = mpki[i] > threshold ? streak + 1 : 0;
        if (streak >= consecutive)
            return static_cast<int>(i) - consecutive + 1;
    }
    return -1;
}

constexpr std::uint32_t retries = 80;

} // namespace

int
main()
{
    // Calibrate on clean runs: threshold = 3x the worst clean
    // interval average.
    std::printf("calibrating on clean runs...\n");
    double clean_peak_avg = 0;
    Tick clean_lifetime = 0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        experiments::VictimRun run =
            experiments::meltdownVictim(false, seed, retries);
        std::vector<double> mpki = intervalMpki(run);
        double avg = 0;
        for (double v : mpki)
            avg += v;
        avg /= std::max<std::size_t>(mpki.size(), 1);
        clean_peak_avg = std::max(clean_peak_avg, avg);
        if (seed == 1)
            clean_lifetime = run.lifetime;
    }
    double threshold = 3.0 * clean_peak_avg;
    std::printf("clean average MPKI ~%.1f -> threshold %.1f\n\n",
                clean_peak_avg, threshold);

    // Detector on clean runs: must stay silent.
    int false_positives = 0;
    for (std::uint64_t seed = 10; seed < 15; ++seed) {
        if (detect(intervalMpki(experiments::meltdownVictim(
                       false, seed, retries)),
                   threshold, 3) >= 0)
            ++false_positives;
    }
    std::printf("clean runs flagged: %d / 5\n", false_positives);

    // Detector on attacked runs: must fire, early.
    int detected = 0;
    double latency_ms = 0;
    std::string recovered;
    for (std::uint64_t seed = 20; seed < 25; ++seed) {
        experiments::VictimRun run =
            experiments::meltdownVictim(true, seed, retries);
        int at = detect(intervalMpki(run), threshold, 3);
        if (at >= 0) {
            ++detected;
            latency_ms += ticksToMs(
                run.deltas.timeAt(static_cast<std::size_t>(at)) -
                run.deltas.timeAt(0));
        }
        recovered = run.recovered;
    }
    std::printf("attacked runs flagged: %d / 5", detected);
    if (detected)
        std::printf(" (mean flag time %.2f ms into the run)",
                    latency_ms / detected);
    std::printf("\n\n");
    std::printf("for reference, the attack did succeed each run: "
                "it exfiltrated \"%s\"\n",
                recovered.c_str());
    std::printf("a 10 ms-floor tool sees %s samples of the clean "
                "%0.1f ms program — no stream to detect on.\n",
                "0-1", ticksToMs(clean_lifetime));
    // The detector holds when it flags every attack and no clean run.
    return false_positives == 0 && detected == 5 ? 0 : 1;
}
