/**
 * @file
 * Google-benchmark microbenchmarks of the simulation substrate
 * itself: how fast the event queue, cache model, PMU, and chunk
 * engine run on the host.  These bound the wall-clock cost of the
 * experiment benches (a full Table II sweep executes ~10^8 cache
 * accesses).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "base/cpu_features.hh"
#include "bench_support/trial_pool.hh"
#include "fault/fault_plan.hh"
#include "fleet/collector.hh"
#include "fleet/fleet.hh"
#include "hw/cpu_core.hh"
#include "kernel/system.hh"
#include "kleb/durable_log.hh"
#include "sim/event_queue.hh"
#include "workload/address_streams.hh"
#include "workload/docker.hh"
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

// The BM_Cache* rows time the scalar lookup, Cache::access().  The
// sampled walks take the level-at-a-time vector walk on hosts with
// AVX-512F (MemHierarchy::walk): BM_Walk times it alone, and
// BM_ChunkBatched times whichever walk the host selects.

void
BM_CacheAccessHit(benchmark::State &state)
{
    hw::Cache cache("bench", {32 * 1024, 8, 64});
    cache.access(0x1000);
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.access(0x1000));
}
BENCHMARK(BM_CacheAccessHit);

void
BM_CacheAccessStream(benchmark::State &state)
{
    hw::Cache cache("bench", {8 * 1024 * 1024, 16, 64});
    Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addr));
        addr += 64;
    }
}
BENCHMARK(BM_CacheAccessStream);

void
BM_CacheEvictLru(benchmark::State &state)
{
    // Every access misses in a full set and evicts via exact LRU —
    // isolates the eviction path: the victim is the set's last way,
    // and the miss costs one shift of the set to put the new line at
    // way 0.
    hw::Cache cache("bench", {32 * 1024, 8, 64});
    const std::uint64_t sets = cache.geometry().sets();
    // 9 tags mapping to set 0 of an 8-way set: round-robin over them
    // never hits.
    Addr addr = 0;
    std::uint64_t tag = 0;
    for (auto _ : state) {
        addr = (tag % 9) * sets * 64;
        ++tag;
        benchmark::DoNotOptimize(cache.access(addr));
    }
}
BENCHMARK(BM_CacheEvictLru);

void
BM_CacheAccessNonPow2Sets(benchmark::State &state)
{
    // BM_CacheAccessStream on the Xeon 8259CL LLC: 53,248 sets, the
    // one modelled level whose set index is a modulo, not a mask.
    hw::Cache cache("bench", hw::MachineConfig::xeon8259cl().llc);
    Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addr));
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
    // Arg streamless 100k-instruction compute chunks through the
    // scheduler and the chunk engine: per-chunk cost model, queueing
    // and pro-rata attribution, with no sampled cache walk.  No paper
    // bench is dominated by this shape; the walk (BM_ChunkBatched)
    // is what the benches spend their time in.
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
    // 64 streamed (memory-sampling) chunks through the chunk engine:
    // one virtual fillBatch call per chunk fills the sample lane, and
    // MemHierarchy::walk reads it as a plain array, through the
    // vector walk where the host has AVX-512F.
    hw::MachineConfig cfg = hw::MachineConfig::corei7_920();
    workload::MemPatternSpec pat =
        workload::MemPatternSpec::randomUniform(64 * 1024 * 1024);
    std::uint64_t ticks = 0;
    for (auto _ : state) {
        state.PauseTiming();
        sim::EventQueue eq;
        hw::Cache llc("LLC", cfg.llc);
        hw::CpuCore core(0, cfg, eq, &llc);
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
BENCHMARK(BM_ChunkBatched);

// The BM_Walk rows time MemHierarchy::walk alone: one 192-address
// lane per op (the i7-920's memSampleCap), cycling through 4,096
// lanes drawn beforehand from one address stream, on a hierarchy
// warmed by one pass over them.  The lanes are matmul's hot/cold
// pattern (a 128 KB hot set taking 99.5 % of accesses over its
// 9.8 MB matrices), uniform over 24 MB and uniform over 16 KB (which
// stays in L1) on the i7-920, and nginx's steady phase (Fig. 5) on
// the Xeon 8259CL.  The walk consumes its lane, so each op first
// copies its lane into the walked one.  The rows exist only on hosts
// with AVX-512F, where walk() takes the vector body, so that a
// runner without it compares no row against a body it cannot run.

void
BM_Walk(benchmark::State &state, const hw::MachineConfig &cfg,
        const workload::MemPatternSpec &spec)
{
    constexpr std::size_t laneLen = 192, lanes = 4096;
    auto stream = workload::makeAddressStream(spec, 0x10000000, Random(5));
    std::vector<Addr> drawn(laneLen * lanes);
    for (std::size_t l = 0; l < lanes; ++l)
        stream->fillBatch(drawn.data() + l * laneLen, laneLen);
    hw::Cache llc("LLC", cfg.llc);
    hw::MemHierarchy mem(cfg, &llc);
    std::vector<Addr> lane(laneLen);
    for (std::size_t l = 0; l < lanes; ++l) {
        std::copy_n(drawn.data() + l * laneLen, laneLen, lane.data());
        mem.walk(lane.data(), laneLen);
    }
    std::size_t next = 0;
    std::uint64_t misses = 0;
    for (auto _ : state) {
        std::copy_n(drawn.data() + next * laneLen, laneLen, lane.data());
        misses += mem.walk(lane.data(), laneLen).l1Miss;
        next = (next + 1) % lanes;
    }
    benchmark::DoNotOptimize(misses);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(laneLen));
}

[[maybe_unused]] const bool walksRegistered = [] {
    if (!hostHasAvx512f())
        return false;
    constexpr std::uint64_t kb = 1024, mb = 1024 * kb;
    const hw::MachineConfig i7 = hw::MachineConfig::corei7_920();
    const workload::DockerImageSpec &nginx =
        workload::dockerImage("nginx");
    const std::pair<std::string, workload::MemPatternSpec> i7Lanes[] = {
        {"hotcold", workload::MemPatternSpec::hotCold(
                        128 * kb, 3 * 640 * 640 * 8, 0.995, 0.04)},
        {"uniform24m", workload::MemPatternSpec::randomUniform(24 * mb)},
        {"uniform16k", workload::MemPatternSpec::randomUniform(16 * kb)},
    };
    for (const auto &[lanes, spec] : i7Lanes)
        benchmark::RegisterBenchmark(
            ("BM_Walk/" + lanes + "/" + i7.name).c_str(), BM_Walk, i7,
            spec);
    const hw::MachineConfig xeon = hw::MachineConfig::xeon8259cl();
    benchmark::RegisterBenchmark(
        ("BM_Walk/nginx/" + xeon.name).c_str(), BM_Walk, xeon,
        workload::MemPatternSpec::hotCold(nginx.hotBytes,
                                          nginx.footprintBytes,
                                          nginx.hotProbability, 0.3));
    return true;
}();

void
BM_FleetParallelPhase1(benchmark::State &state)
{
    // Fleet Phases 1+2 (per-machine simulation + uplink transmit)
    // through the trial pool at Arg jobs.  On a multi-core
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

// One 192-access fill (the i7-920's memSampleCap) per op from each
// kind of address stream, over matmul's 9.8 MB matrices with its
// hot/cold spec (a 128 KB hot set taking 99.5 % of accesses, 4 %
// writes).  The BM_StreamFill rows time the scalar bodies, which
// every host runs.  The BM_StreamFillLanes rows time the lane bodies
// of the random and hot/cold streams (a sequential stream has one
// body) and exist only on hosts with AVX-512F and AVX-512DQ, so that
// a runner without them compares no row against a body it cannot run
// (the lane fill is about 4x the scalar one).

void
BM_StreamFill(benchmark::State &state,
              const workload::MemPatternSpec &spec, bool lanes)
{
    auto stream = workload::makeAddressStream(spec, 0x10000000, Random(5));
    std::vector<Addr> out(192);
    for (auto _ : state) {
#if defined(__x86_64__)
        if (lanes)
            stream->fillLanes(out.data(), out.size());
        else
#endif
            stream->fillScalar(out.data(), out.size());
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(out.size()));
}

[[maybe_unused]] const bool streamFillsRegistered = [] {
    constexpr std::uint64_t matrices = 3 * 640 * 640 * 8;
    const std::pair<const char *, workload::MemPatternSpec> specs[] = {
        {"sequential", workload::MemPatternSpec::sequential(matrices)},
        {"random", workload::MemPatternSpec::randomUniform(matrices, 0.04)},
        {"hotcold", workload::MemPatternSpec::hotCold(
                        128 * 1024, matrices, 0.995, 0.04)},
    };
    for (const auto &[kind, spec] : specs) {
        benchmark::RegisterBenchmark(
            (std::string("BM_StreamFill/") + kind).c_str(), BM_StreamFill,
            spec, false);
        if (spec.kind != workload::MemPatternSpec::Kind::sequential &&
            hostHasAvx512dq())
            benchmark::RegisterBenchmark(
                (std::string("BM_StreamFillLanes/") + kind).c_str(),
                BM_StreamFill, spec, true);
    }
    return true;
}();

void
BM_Crc32cFrame(benchmark::State &state)
{
    // One durable-log frame payload: the 88 bytes after the CRC
    // field that DurableLog::writeFrame checksums on append and
    // LogRecovery::scan checksums again on recovery.
    std::uint8_t payload[kleb::DurableLog::frameSize - 8];
    for (std::size_t i = 0; i < sizeof(payload); ++i)
        payload[i] = static_cast<std::uint8_t>(i * 37 + 11);
    for (auto _ : state) {
        benchmark::DoNotOptimize(payload);
        benchmark::DoNotOptimize(
            kleb::crc32c(payload, sizeof(payload)));
    }
    state.SetBytesProcessed(state.iterations() * sizeof(payload));
}
BENCHMARK(BM_Crc32cFrame);

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
    // trials, thread start and join included; bounds the fan-out
    // overhead the experiment benches pay on top of the simulation
    // itself.  The pool is built per map, as runTrials and runFleet
    // build theirs.
    for (auto _ : state) {
        bench::TrialPool pool(
            static_cast<unsigned>(state.range(0)));
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
