#include "bench_support/trial_pool.hh"
#include "experiments/experiments.hh"
#include "kernel/system.hh"
#include "kleb/session.hh"
#include "workload/meltdown.hh"

namespace klebsim::experiments
{

using namespace klebsim::ticks_literals;

VictimRun
meltdownVictim(bool attack, std::uint64_t seed, std::uint32_t retries)
{
    kernel::System sys(hw::MachineConfig::corei7_920(), seed);
    std::unique_ptr<workload::PhaseWorkload> printer;
    std::unique_ptr<workload::MeltdownWorkload> attacker;
    hw::WorkSource *src = nullptr;
    if (attack) {
        workload::MeltdownParams params;
        params.retriesPerByte = retries;
        attacker = std::make_unique<workload::MeltdownWorkload>(
            params, 0x300000000ULL, sys.forkRng(9));
        src = attacker.get();
    } else {
        printer = workload::makeSecretPrinter(0x300000000ULL,
                                              sys.forkRng(9));
        src = printer.get();
    }
    kernel::Process *target =
        sys.kernel().createWorkload("victim", src, 0);

    kleb::Session::Options opts;
    opts.events = {hw::HwEvent::instRetired,
                   hw::HwEvent::llcReference, hw::HwEvent::llcMiss};
    opts.period = 100_us;
    opts.controllerCore = 1;
    kleb::Session session(sys, opts);
    session.monitor(target);
    sys.run();

    VictimRun out;
    out.totals = session.finalTotals();
    out.deltas = session.deltaSeries();
    out.samples = session.samples().size();
    out.lifetime = target->lifetime();
    if (attacker)
        out.recovered = attacker->recoveredSecret();
    return out;
}

Fig6
fig6(bool quick, int rounds, unsigned jobs)
{
    const std::uint32_t retries = quick ? 40 : 65;
    const auto n = static_cast<std::size_t>(rounds);
    // Rounds [0, n) run the clean program, [n, 2n) the attack.
    bench::TrialPool pool(jobs);
    const std::vector<VictimRun> runs =
        pool.map(2 * n, [&](std::size_t k) {
            const bool attack = k >= n;
            return meltdownVictim(
                attack, bench::trialSeed(100, attack ? 1 : 0, k % n),
                retries);
        });
    auto average = [&](std::size_t first) {
        LlcAverages avg;
        for (std::size_t r = first; r < first + n; ++r) {
            const double miss = static_cast<double>(
                at(runs[r].totals, hw::HwEvent::llcMiss));
            avg.llcRef += static_cast<double>(
                at(runs[r].totals, hw::HwEvent::llcReference));
            avg.llcMiss += miss;
            avg.mpki += stats::mpki(
                miss, static_cast<double>(at(
                          runs[r].totals, hw::HwEvent::instRetired)));
            avg.ms += ticksToMs(runs[r].lifetime);
            avg.samples += runs[r].samples;
        }
        avg.llcRef /= rounds;
        avg.llcMiss /= rounds;
        avg.mpki /= rounds;
        avg.ms /= rounds;
        avg.samples /= n;
        return avg;
    };
    return {average(0), average(n)};
}

Fig7
fig7(bool quick, unsigned jobs)
{
    const std::uint32_t retries = quick ? 30 : 65;
    bench::TrialPool pool(jobs);
    std::vector<VictimRun> runs = pool.map(2, [&](std::size_t k) {
        return meltdownVictim(k == 1, 77, retries);
    });
    return {std::move(runs[0]), std::move(runs[1])};
}

double
imageMpki(const hw::MachineConfig &machine,
          const workload::DockerImageSpec &spec,
          std::uint64_t instructions, std::uint64_t seed)
{
    kernel::System sys(machine, seed);
    workload::DockerImageSpec scaled = spec;
    scaled.instructions = instructions;
    auto container = workload::launchContainer(
        sys.kernel(), scaled, 0, 0x200000000ULL, sys.forkRng(seed));

    kleb::Session::Options opts;
    opts.events = {hw::HwEvent::instRetired, hw::HwEvent::llcMiss,
                   hw::HwEvent::llcReference};
    opts.period = 1_ms;
    opts.controllerCore = 1;
    kleb::Session session(sys, opts);
    session.monitor(container->shim, false);
    sys.run();

    hw::EventVector totals = session.finalTotals();
    return stats::mpki(
        static_cast<double>(at(totals, hw::HwEvent::llcMiss)),
        static_cast<double>(at(totals, hw::HwEvent::instRetired)));
}

std::vector<ImageRow>
fig5(bool quick, unsigned jobs)
{
    const std::uint64_t instructions =
        quick ? 60000000ULL : 400000000ULL;
    const auto &catalog = workload::dockerCatalog();
    // Even trials run on the i7-920, odd ones on the Xeon.
    bench::TrialPool pool(jobs);
    const std::vector<double> mpki =
        pool.map(catalog.size() * 2, [&](std::size_t k) {
            return imageMpki(k % 2 == 0
                                 ? hw::MachineConfig::corei7_920()
                                 : hw::MachineConfig::xeon8259cl(),
                             catalog[k / 2], instructions, 7);
        });
    std::vector<ImageRow> rows;
    for (std::size_t s = 0; s < catalog.size(); ++s)
        rows.push_back({catalog[s].name, mpki[2 * s], mpki[2 * s + 1],
                        catalog[s].expectMemoryIntensive});
    return rows;
}

} // namespace klebsim::experiments
