/**
 * @file
 * Docker workload characterization (paper case study IV-B).
 *
 * Launches each catalog image as a real container (containerd-shim
 * parent + entrypoint child), monitors the *shim* PID with
 * descendant tracing, and classifies the image by LLC MPKI — then
 * prints the co-location advice the paper derives from it: pair a
 * computation-intensive container with a memory-intensive one on
 * the same core, never two memory-intensive ones.  Exits 1 if an
 * image lands outside the class the catalog expects.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "experiments/experiments.hh"

using namespace klebsim;

namespace
{

struct Result
{
    std::string name;
    double mpki;
    bool memoryIntensive;
};

} // namespace

int
main()
{
    std::printf("characterizing docker images via K-LEB "
                "(shim-PID monitoring, children traced)...\n\n");

    // A short characterization burst per image.
    std::vector<Result> results;
    bool classes_match = true;
    for (const auto &spec : workload::dockerCatalog()) {
        double mpki = experiments::imageMpki(
            hw::MachineConfig::corei7_920(), spec, 120000000, 17);
        bool memory = mpki > workload::memoryIntensiveMpki;
        classes_match &= memory == spec.expectMemoryIntensive;
        results.push_back({spec.name, mpki, memory});
    }

    std::printf("%-10s %8s  %s\n", "image", "MPKI", "class");
    for (const Result &r : results) {
        std::printf("%-10s %8.2f  %s\n", r.name.c_str(), r.mpki,
                    r.memoryIntensive ? "memory-intensive"
                                      : "computation-intensive");
    }

    // Scheduler advice (Torres et al. / Arteaga et al.): pair
    // opposite classes per core.
    std::vector<Result> mem, cpu;
    for (const Result &r : results)
        (r.memoryIntensive ? mem : cpu).push_back(r);
    std::sort(mem.begin(), mem.end(),
              [](auto &a, auto &b) { return a.mpki > b.mpki; });
    std::sort(cpu.begin(), cpu.end(),
              [](auto &a, auto &b) { return a.mpki < b.mpki; });

    std::printf("\nsuggested co-location (compute paired with "
                "memory-intensive):\n");
    std::size_t pairs = std::max(mem.size(), cpu.size());
    for (std::size_t i = 0; i < pairs; ++i) {
        const char *a = i < mem.size() ? mem[i].name.c_str() : "-";
        const char *b = i < cpu.size() ? cpu[i].name.c_str() : "-";
        std::printf("  core %zu: %s + %s\n", i, a, b);
    }
    std::printf("\navoid: scheduling two memory-intensive "
                "containers (e.g. %s + %s) on one core.\n",
                mem.size() > 0 ? mem[0].name.c_str() : "-",
                mem.size() > 1 ? mem[1].name.c_str() : "-");
    return classes_match ? 0 : 1;
}
