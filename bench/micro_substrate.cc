/**
 * @file
 * Google-benchmark microbenchmarks of the simulation substrate
 * itself: how fast the event queue, cache model, PMU, and chunk
 * engine run on the host.  These bound the wall-clock cost of the
 * experiment benches (a full Table II sweep executes ~10^8 cache
 * accesses).
 */

#include <benchmark/benchmark.h>

#include "bench_support/trial_pool.hh"
#include "fault/fault_plan.hh"
#include "fleet/collector.hh"
#include "fleet/fleet.hh"
#include "hw/cpu_core.hh"
#include "kernel/system.hh"
#include "sim/event_queue.hh"
#include "workload/address_streams.hh"
#include "workload/microbench.hh"

using namespace klebsim;

namespace
{

void
BM_EventQueueSchedule(benchmark::State &state)
{
    sim::EventQueue eq;
    std::uint64_t n = 0;
    for (auto _ : state) {
        eq.scheduleLambda(eq.curTick() + 100,
                          [&n] { ++n; });
        eq.runOne();
    }
    benchmark::DoNotOptimize(n);
}
BENCHMARK(BM_EventQueueSchedule);

void
BM_EventQueueScheduleWithListener(benchmark::State &state)
{
    // Same loop as BM_EventQueueSchedule with a no-op listener
    // attached: the price of having tracing on.
    sim::EventQueue eq;
    sim::EventQueueListener listener;
    eq.addListener(&listener);
    std::uint64_t n = 0;
    for (auto _ : state) {
        eq.scheduleLambda(eq.curTick() + 100,
                          [&n] { ++n; });
        eq.runOne();
    }
    eq.removeListener(&listener);
    benchmark::DoNotOptimize(n);
}
BENCHMARK(BM_EventQueueScheduleWithListener);

void
BM_EventQueueScheduleAfterListenerDetach(benchmark::State &state)
{
    // Attach and detach a listener before timing: throughput must
    // match the never-listened BM_EventQueueSchedule baseline (the
    // empty-check guard; bench_report --compare enforces the pair).
    sim::EventQueue eq;
    sim::EventQueueListener listener;
    eq.addListener(&listener);
    eq.removeListener(&listener);
    std::uint64_t n = 0;
    for (auto _ : state) {
        eq.scheduleLambda(eq.curTick() + 100,
                          [&n] { ++n; });
        eq.runOne();
    }
    benchmark::DoNotOptimize(n);
}
BENCHMARK(BM_EventQueueScheduleAfterListenerDetach);

void
BM_EventQueueScheduleDeschedule(benchmark::State &state)
{
    // Schedule/deschedule-heavy pattern: a standing population of
    // timers where most are cancelled before firing (the kernel's
    // slice-end and hrtimer behaviour under frequent reprogramming).
    struct NopEvent : sim::Event
    {
        void process() override {}
    };
    sim::EventQueue eq;
    constexpr int population = 32;
    NopEvent events[population];
    for (int i = 0; i < population; ++i)
        eq.schedule(&events[i],
                    eq.curTick() + 100 + static_cast<Tick>(i));
    int next = 0;
    for (auto _ : state) {
        sim::Event *ev = &events[next];
        eq.deschedule(ev);
        eq.schedule(ev, eq.curTick() + 100 +
                            static_cast<Tick>(next));
        next = (next + 1) % population;
    }
    for (int i = 0; i < population; ++i)
        eq.deschedule(&events[i]);
}
BENCHMARK(BM_EventQueueScheduleDeschedule);

void
BM_EventQueueMixedPriority(benchmark::State &state)
{
    // Same-tick events across all priority classes (timer expiry,
    // interrupt delivery, scheduler, stats) — exercises bin
    // insertion at several keys per tick, the hrtimer-tick shape.
    sim::EventQueue eq;
    static constexpr int prios[] = {
        sim::Event::timerPriority, sim::Event::interruptPriority,
        sim::Event::defaultPriority, sim::Event::schedulerPriority,
        sim::Event::statsPriority,
    };
    std::uint64_t n = 0;
    for (auto _ : state) {
        Tick when = eq.curTick() + 100;
        for (int prio : prios)
            eq.scheduleLambda(when, [&n] { ++n; }, prio);
        eq.runUntil(when);
    }
    benchmark::DoNotOptimize(n);
}
BENCHMARK(BM_EventQueueMixedPriority);

void
BM_CacheAccessHit(benchmark::State &state)
{
    hw::Cache cache("bench", {32 * 1024, 8, 64,
                              hw::ReplPolicy::lru},
                    Random(1));
    cache.access(0x1000, false);
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.access(0x1000, false));
}
BENCHMARK(BM_CacheAccessHit);

void
BM_CacheAccessStream(benchmark::State &state)
{
    hw::Cache cache("bench", {8 * 1024 * 1024, 16, 64,
                              hw::ReplPolicy::lru},
                    Random(1));
    Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addr, false));
        addr += 64;
    }
}
BENCHMARK(BM_CacheAccessStream);

void
BM_CacheEvictLru(benchmark::State &state)
{
    // Every access misses in a full set and evicts via exact LRU —
    // isolates the victim-selection path: the smallest of the set's
    // touch stamps.
    hw::Cache cache("bench", {32 * 1024, 8, 64,
                              hw::ReplPolicy::lru},
                    Random(1));
    const std::uint64_t sets = cache.geometry().sets();
    // 9 tags mapping to set 0 of an 8-way set: round-robin over them
    // never hits.
    Addr addr = 0;
    std::uint64_t tag = 0;
    for (auto _ : state) {
        addr = (tag % 9) * sets * 64;
        ++tag;
        benchmark::DoNotOptimize(cache.access(addr, false));
    }
}
BENCHMARK(BM_CacheEvictLru);

void
BM_CacheAccessNonPow2Sets(benchmark::State &state)
{
    // BM_CacheAccessStream on the Xeon 8259CL LLC: 53,248 sets, the
    // one modelled level whose set index is a modulo, not a mask.
    hw::Cache cache("bench", hw::MachineConfig::xeon8259cl().llc,
                    Random(1));
    Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addr, false));
        addr += 64;
    }
}
BENCHMARK(BM_CacheAccessNonPow2Sets);

void
BM_PmuAddEvents(benchmark::State &state)
{
    hw::Pmu pmu;
    pmu.programCounter(0, hw::HwEvent::llcMiss);
    pmu.programCounter(1, hw::HwEvent::branchRetired);
    pmu.programFixed(0, true, true);
    pmu.globalEnableAll();
    hw::EventVector ev = hw::zeroEvents();
    at(ev, hw::HwEvent::llcMiss) = 3;
    at(ev, hw::HwEvent::branchRetired) = 100;
    at(ev, hw::HwEvent::instRetired) = 1000;
    for (auto _ : state)
        pmu.addEvents(ev, hw::PrivLevel::user);
    benchmark::DoNotOptimize(pmu.counterValue(0));
}
BENCHMARK(BM_PmuAddEvents);

void
BM_ChunkExecution(benchmark::State &state)
{
    // End-to-end cost of simulating one 100k-instruction chunk
    // through scheduler + chunk engine (dominant bench cost).
    for (auto _ : state) {
        state.PauseTiming();
        kernel::System sys;
        workload::FixedWorkSource src = workload::computeSource(
            static_cast<std::size_t>(state.range(0)), 100000, 2.0);
        kernel::Process *p =
            sys.kernel().createWorkload("w", &src, 0);
        state.ResumeTiming();
        sys.kernel().startProcess(p);
        sys.run();
        benchmark::DoNotOptimize(p->exitTick());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChunkExecution)->Arg(16)->Arg(256);

void
BM_ChunkBatched(benchmark::State &state)
{
    // Streamed (memory-sampling) chunk through the chunk engine:
    // Arg 1 = batched SoA fill path (one virtual fillBatch call per
    // chunk), Arg 0 = the retained reference interpreter (one
    // virtual next() per sampled access).  The pair quantifies the
    // dispatch cost the SoA lanes remove; both produce bit-identical
    // counts (ChunkEngineEquivalence pins that).
    hw::MachineConfig cfg = hw::MachineConfig::corei7_920();
    cfg.batchedChunkEngine = state.range(0) != 0;
    workload::MemPatternSpec pat =
        workload::MemPatternSpec::randomUniform(64 * 1024 * 1024);
    std::uint64_t ticks = 0;
    for (auto _ : state) {
        state.PauseTiming();
        sim::EventQueue eq;
        hw::Cache llc("LLC", cfg.llc, Random(2));
        hw::CpuCore core(0, cfg, eq, &llc, Random(3));
        auto stream =
            workload::makeAddressStream(pat, 0x10000000, Random(5));
        hw::WorkChunk chunk;
        chunk.instructions = 100000;
        chunk.loads = 30000;
        chunk.stores = 10000;
        chunk.baseIpc = 2.0;
        chunk.stream = stream.get();
        workload::FixedWorkSource src(
            std::vector<hw::WorkChunk>(64, chunk));
        hw::ExecContext ctx(&src);
        state.ResumeTiming();
        core.attachContext(&ctx);
        Tick total = 0;
        while (true) {
            hw::PrepareResult res = core.prepare(secToTicks(10));
            total += res.available;
            eq.runUntil(total);
            core.syncTo(total);
            if (res.completes)
                break;
        }
        ticks += total;
        core.detachContext();
    }
    benchmark::DoNotOptimize(ticks);
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ChunkBatched)->Arg(0)->Arg(1);

void
BM_FleetParallelPhase1(benchmark::State &state)
{
    // Fleet Phases 1+2 (per-machine simulation + uplink transmit)
    // through the work-stealing pool at Arg jobs.  On a multi-core
    // host the jobs=8 row divides the jobs=1 wall clock by the
    // worker count; outputs are byte-identical either way (the
    // jobs-invariance CI gate).
    fleet::FleetConfig cfg;
    cfg.machines = 32;
    cfg.coresPerMachine = 1;
    cfg.jobs = static_cast<unsigned>(state.range(0));
    fault::FaultPlan plan;
    bench::TrialPool pool(cfg.jobs);
    for (auto _ : state) {
        auto shards =
            fleet::simulateMachines(cfg, plan, pool, nullptr);
        benchmark::DoNotOptimize(shards.size());
    }
    state.SetItemsProcessed(state.iterations() * cfg.machines);
}
BENCHMARK(BM_FleetParallelPhase1)->Arg(1)->Arg(8);

void
BM_RandomStream(benchmark::State &state)
{
    Random rng(7);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next64());
}
BENCHMARK(BM_RandomStream);

void
BM_FleetCollectorIngest(benchmark::State &state)
{
    // Per-record cost of the fleet collector's merge path: journal
    // append + liveness bookkeeping + four-level tree fan-out.
    // Bounds the fleet bench's "millions of samples per second"
    // claim from below.
    const std::uint32_t machines = 16;
    constexpr std::uint64_t rounds = 64;
    std::vector<fleet::Delivery> stream;
    stream.reserve(rounds * machines);
    for (std::uint64_t i = 0; i < rounds; ++i) {
        for (std::uint32_t m = 0; m < machines; ++m) {
            fleet::Delivery d;
            d.arrival = usToTicks(100) * (i + 1);
            d.rec.machine = m;
            d.rec.seq = i;
            d.rec.ts = d.arrival;
            d.rec.counts = {2000 * (i + 1), 1000 * (i + 1),
                            10 * (i + 1)};
            stream.push_back(d);
        }
    }
    for (auto _ : state) {
        fleet::CollectorConfig cfg;
        cfg.machines = machines;
        cfg.coresPerMachine = 1;
        cfg.heartbeatTimeout = secToTicks(1);
        fleet::Collector collector(cfg);
        collector.ingest(stream);
        benchmark::DoNotOptimize(collector.stats().accepted);
    }
    state.SetItemsProcessed(state.iterations() * stream.size());
}
BENCHMARK(BM_FleetCollectorIngest);

void
BM_TrialPoolMap(benchmark::State &state)
{
    // Dispatch + commit cost of the bench trial pool for 64 trivial
    // trials; bounds the fan-out overhead the experiment benches
    // pay on top of the simulation itself.
    bench::TrialPool pool(
        static_cast<unsigned>(state.range(0)));
    for (auto _ : state) {
        auto seeds =
            pool.map(64, [](std::size_t i) {
                return bench::trialSeed(1, 2, i);
            });
        benchmark::DoNotOptimize(seeds);
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_TrialPoolMap)->Arg(1)->Arg(4);

} // namespace

BENCHMARK_MAIN();
