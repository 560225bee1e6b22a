#include "cpu_core.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace klebsim::hw
{

namespace
{

/** Kernel scratch regions live far from any user address space. */
constexpr Addr kernelScratchBase = 0xffff880000000000ULL;
constexpr Addr kernelScratchStride = 0x10000000ULL; // 256 MB/core

} // anonymous namespace

CpuCore::CpuCore(CoreId id, const MachineConfig &cfg,
                 sim::EventQueue &eq, Cache *shared_llc, Random rng)
    : id_(id), cfg_(cfg), eq_(eq), clock_(cfg.coreFreqHz),
      refClock_(cfg.refFreqHz), rng_(rng),
      mem_(cfg, shared_llc, rng_.fork(0x1000 + id)), ctx_(nullptr),
      attributedUpTo_(0), busyTime_(0), kernelScratchCursor_(0),
      laneAddr_(cfg.memSampleCap), laneWrite_(cfg.memSampleCap)
{
    msrs_.attach(&pmu_);
}

bool
CpuCore::ChunkCostTable::Entry::matches(
    const WorkChunk &c, const MachineConfig &cfg) const
{
    return instructions == c.instructions && loads == c.loads &&
           stores == c.stores && branches == c.branches &&
           muls == c.muls && divs == c.divs && fpops == c.fpops &&
           fixedCycles == c.fixedCycles &&
           mispredictRate == c.mispredictRate &&
           baseIpc == c.baseIpc &&
           stallExposureScale == c.stallExposureScale &&
           branchMispredictPenalty ==
               cfg.pipeline.branchMispredictPenalty &&
           memStallExposure == cfg.pipeline.memStallExposure &&
           coreFreqHz == cfg.coreFreqHz &&
           refFreqHz == cfg.refFreqHz;
}

const CpuCore::ChunkCostTable::Entry *
CpuCore::ChunkCostTable::find(const WorkChunk &c,
                              const MachineConfig &cfg) const
{
    const Entry &hot = entries[lastHit];
    if (hot.valid && hot.matches(c, cfg))
        return &hot;
    for (std::size_t i = 0; i < capacity; ++i) {
        const Entry &e = entries[i];
        if (e.valid && e.matches(c, cfg)) {
            lastHit = i;
            return &e;
        }
    }
    return nullptr;
}

const CpuCore::ChunkCostTable::Entry *
CpuCore::ChunkCostTable::store(const WorkChunk &c,
                               const MachineConfig &cfg,
                               const ExecContext::Prepared &p)
{
    Entry &e = entries[nextVictim];
    lastHit = nextVictim;
    nextVictim = (nextVictim + 1) % capacity;
    ++generation;
    e.valid = true;
    e.instructions = c.instructions;
    e.loads = c.loads;
    e.stores = c.stores;
    e.branches = c.branches;
    e.muls = c.muls;
    e.divs = c.divs;
    e.fpops = c.fpops;
    e.fixedCycles = c.fixedCycles;
    e.mispredictRate = c.mispredictRate;
    e.baseIpc = c.baseIpc;
    e.stallExposureScale = c.stallExposureScale;
    e.branchMispredictPenalty =
        cfg.pipeline.branchMispredictPenalty;
    e.memStallExposure = cfg.pipeline.memStallExposure;
    e.coreFreqHz = cfg.coreFreqHz;
    e.refFreqHz = cfg.refFreqHz;
    e.result = p;
    return &e;
}

std::uint64_t
CpuCore::rdtsc() const
{
    return refClock_.ticksToCycles(eq_.curTick());
}

void
CpuCore::attachContext(ExecContext *ctx)
{
    panic_if(ctx_ != nullptr, "core ", id_, ": context already attached");
    panic_if(ctx == nullptr, "core ", id_, ": attaching null context");
    ctx_ = ctx;
    // A charge on the (idle) core may have pushed the cursor past
    // now; never rewind it, or time would be attributed twice.
    attributedUpTo_ = std::max(attributedUpTo_, eq_.curTick());
}

void
CpuCore::detachContext()
{
    panic_if(ctx_ == nullptr, "core ", id_, ": no context attached");
    panic_if(attributedUpTo_ < eq_.curTick(),
             "core ", id_, ": detach without syncTo (cursor ",
             attributedUpTo_, " < now ", eq_.curTick(), ")");
    ctx_ = nullptr;
}

ExecContext::Prepared
CpuCore::executeChunk(const WorkChunk &chunk)
{
    if (!cfg_.batchedChunkEngine) {
        // Reference interpreter: one cost-model evaluation per
        // chunk, one virtual stream call per sampled access.
        lastPrepEntry_ = nullptr;
        return modelChunk(chunk, /*batched=*/false);
    }

    // Streamless chunks touch no shared state; serve repeats from
    // the compiled cost table (priv/flops pass straight through —
    // they don't feed the cost model).
    const bool memoizable =
        !chunk.preExecuted &&
        (chunk.stream == nullptr || chunk.loads + chunk.stores == 0);
    if (memoizable) {
        if (const ChunkCostTable::Entry *e =
                costTable_.find(chunk, cfg_)) {
            lastPrepEntry_ = e;
            lastPrepGen_ = costTable_.generation;
            ExecContext::Prepared p = e->result;
            p.priv = chunk.priv;
            p.flops = chunk.flops;
            return p;
        }
    }
    ExecContext::Prepared p = modelChunk(chunk, /*batched=*/true);
    if (memoizable) {
        lastPrepEntry_ = costTable_.store(chunk, cfg_, p);
        lastPrepGen_ = costTable_.generation;
    } else {
        lastPrepEntry_ = nullptr;
    }
    return p;
}

ExecContext::Prepared
CpuCore::modelChunk(const WorkChunk &chunk, bool batched)
{
    ExecContext::Prepared p;
    p.priv = chunk.priv;
    p.flops = chunk.flops;

    const MemLatency &lat = cfg_.latency;
    const PipelineModel &pipe = cfg_.pipeline;

    std::uint64_t stall_cycles = 0;
    EventVector &ev = p.events;

    if (chunk.preExecuted) {
        ev = chunk.preEvents;
        stall_cycles = chunk.preStallCycles;
    } else {
        std::uint64_t mem_ops = chunk.loads + chunk.stores;
        std::uint64_t l1_miss = 0, l2_miss = 0, llc_ref = 0,
                      llc_miss = 0;
        std::uint64_t sampled_stall = 0;
        std::uint64_t sampled = 0;
        if (mem_ops > 0 && chunk.stream != nullptr) {
            sampled = std::min<std::uint64_t>(mem_ops,
                                              cfg_.memSampleCap);
            // Hoisted out of the sampled loop: the config is const
            // for the core's lifetime, but the compiler can't prove
            // that across the stores of the inlined cache walk.
            const std::uint32_t l1Lat = lat.l1;
            // L2 hits are almost entirely hidden by the out-of-order
            // window; deeper misses expose their full latency beyond
            // L1.
            const std::uint32_t l2HiddenStall =
                (lat.l2 - lat.l1) / 12;
            AddressStream &stream = *chunk.stream;
            const Addr *addrs = nullptr;
            const std::uint8_t *writes = nullptr;
            if (batched) {
                // One virtual call fills both SoA lanes; the walk
                // below then reads contiguous plain arrays.  The
                // lanes are sized memSampleCap at construction and
                // sampled never exceeds it.
                stream.fillBatch(laneAddr_.data(),
                                 laneWrite_.data(), sampled);
                addrs = laneAddr_.data();
                writes = laneWrite_.data();
            }
            for (std::uint64_t i = 0; i < sampled; ++i) {
                Addr a;
                bool w;
                if (batched) {
                    a = addrs[i];
                    w = writes[i] != 0;
                } else {
                    MemRef ref = stream.next();
                    a = ref.addr;
                    w = ref.write;
                }
                AccessOutcome out = mem_.access(a, w);
                if (out.l1Miss) {
                    ++l1_miss;
                    std::uint32_t extra = out.cycles - l1Lat;
                    if (!out.l2Miss)
                        extra = l2HiddenStall;
                    sampled_stall += extra;
                }
                if (out.l2Miss)
                    ++l2_miss;
                if (out.llcRef)
                    ++llc_ref;
                if (out.llcMiss)
                    ++llc_miss;
            }
        }
        double scale =
            sampled ? static_cast<double>(mem_ops) /
                          static_cast<double>(sampled)
                    : 0.0;
        auto scaled = [&](std::uint64_t n) {
            return static_cast<std::uint64_t>(
                std::llround(static_cast<double>(n) * scale));
        };

        at(ev, HwEvent::instRetired) = chunk.instructions;
        at(ev, HwEvent::loadRetired) = chunk.loads;
        at(ev, HwEvent::storeRetired) = chunk.stores;
        at(ev, HwEvent::branchRetired) = chunk.branches;
        at(ev, HwEvent::branchMispredicted) =
            static_cast<std::uint64_t>(
                std::llround(static_cast<double>(chunk.branches) *
                             chunk.mispredictRate));
        at(ev, HwEvent::arithMul) = chunk.muls;
        at(ev, HwEvent::arithDiv) = chunk.divs;
        at(ev, HwEvent::fpOpsRetired) = chunk.fpops;
        at(ev, HwEvent::l1dReference) = mem_ops;
        at(ev, HwEvent::l1dMiss) = scaled(l1_miss);
        at(ev, HwEvent::l2Reference) = scaled(l1_miss);
        at(ev, HwEvent::l2Miss) = scaled(l2_miss);
        at(ev, HwEvent::llcReference) = scaled(llc_ref);
        at(ev, HwEvent::llcMiss) = scaled(llc_miss);

        stall_cycles = scaled(sampled_stall);
    }

    Cycles cyc;
    if (chunk.fixedCycles != 0) {
        cyc = chunk.fixedCycles;
    } else {
        double base_ipc = std::max(chunk.baseIpc, 0.05);
        double cycles =
            static_cast<double>(at(ev, HwEvent::instRetired)) /
            base_ipc;
        cycles += static_cast<double>(stall_cycles) *
                  pipe.memStallExposure * chunk.stallExposureScale;
        cycles += static_cast<double>(
                      at(ev, HwEvent::branchMispredicted)) *
                  pipe.branchMispredictPenalty;
        cyc = static_cast<Cycles>(
            std::llround(std::max(cycles, 1.0)));
    }
    at(ev, HwEvent::coreCycles) = cyc;
    p.duration = clock_.cyclesToTicks(cyc);
    at(ev, HwEvent::refCycles) = refClock_.ticksToCycles(p.duration);
    return p;
}

PrepareResult
CpuCore::prepare(Tick horizon)
{
    panic_if(ctx_ == nullptr, "core ", id_, ": prepare without context");
    ExecContext &ctx = *ctx_;

    while (ctx.ahead_ < horizon && !ctx.sourceDone_) {
        if (ctx.source_ == nullptr || ctx.source_->done()) {
            ctx.sourceDone_ = true;
            break;
        }
        WorkChunk chunk = ctx.source_->nextChunk(mem_);

        // Run coalescing (batched engine): a run of identical
        // streamless flops-free chunks folds into one Prepared with
        // k-fold duration and events.  Pro-rata integer attribution
        // of the merged record is bit-identical to attributing the
        // k units separately — floor(kE*t/(kD)) == floor(E*t/D) at
        // every tick t, even mid-run — so PMU reads, timeslice
        // boundaries, and CSVs cannot observe the merge.  flops are
        // excluded because double accumulation does not telescope.
        const bool coalescible =
            cfg_.batchedChunkEngine && !chunk.preExecuted &&
            (chunk.stream == nullptr ||
             chunk.loads + chunk.stores == 0) &&
            chunk.flops == 0.0;
        ExecContext::Prepared p = executeChunk(chunk);
        ctx.ahead_ += p.duration;
        bool merge = false;
        if (coalescible && ctx.backMergeable_ &&
            !ctx.queue_.empty() && ctx.backUnitPriv_ == p.priv) {
            // Entry-identity fast path: same compiled entry, same
            // table generation -> the result bytes are the unit's
            // by construction.  Falls back to the field compare
            // after migration or eviction.
            merge = (lastPrepEntry_ != nullptr &&
                     ctx.backUnitEntry_ == lastPrepEntry_ &&
                     ctx.backUnitGen_ == lastPrepGen_) ||
                    (ctx.backUnitDuration_ == p.duration &&
                     ctx.backUnitEvents_ == p.events);
        }
        if (merge) {
            ExecContext::Prepared &back = ctx.queue_.back();
            back.duration += p.duration;
            for (std::size_t i = 0; i < numHwEvents; ++i)
                back.events[i] += p.events[i];
        } else {
            ctx.backMergeable_ = coalescible;
            if (coalescible) {
                ctx.backUnitDuration_ = p.duration;
                ctx.backUnitEvents_ = p.events;
                ctx.backUnitPriv_ = p.priv;
                ctx.backUnitEntry_ = lastPrepEntry_;
                ctx.backUnitGen_ = lastPrepGen_;
            }
            ctx.queue_.push_back(std::move(p));
        }
        if (ctx.source_->done())
            ctx.sourceDone_ = true;
    }

    PrepareResult res;
    res.available = std::min(ctx.ahead_, horizon);
    res.completes = ctx.sourceDone_ && ctx.ahead_ <= horizon;
    return res;
}

void
CpuCore::creditFront(ExecContext::Prepared &front, Tick g)
{
    ExecContext &ctx = *ctx_;
    EventVector delta = zeroEvents();
    Tick new_attr = ctx.frontAttributed_ + g;

    for (std::size_t i = 0; i < numHwEvents; ++i) {
        // 128-bit intermediate: counts (~1e7) * duration (~1e8 ps)
        // would already fit in 64 bits, but chunks are caller-sized
        // and this must never silently wrap.
        auto cum = static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(front.events[i]) *
             new_attr) /
            front.duration);
        delta[i] = cum - ctx.frontCredited_[i];
        ctx.frontCredited_[i] = cum;
    }
    double flops_cum = front.flops * static_cast<double>(new_attr) /
                       static_cast<double>(front.duration);
    double flops_delta = flops_cum - ctx.frontFlopsCredited_;
    ctx.frontFlopsCredited_ = flops_cum;

    pmu_.addEvents(delta, front.priv);
    accumulate(ctx.total_, delta);
    ctx.flops_ += flops_delta;
    ctx.frontAttributed_ = new_attr;
}

void
CpuCore::syncTo(Tick now)
{
    // A charge() can push the attribution cursor ahead of simulated
    // time (interrupts are effectively masked inside the charged
    // critical section); syncs landing inside that window are no-ops.
    if (now <= attributedUpTo_)
        return;
    if (ctx_ == nullptr) {
        attributedUpTo_ = now;
        return;
    }
    ExecContext &ctx = *ctx_;
    Tick remaining = now - attributedUpTo_;
    busyTime_ += remaining;
    ctx.cpuTime_ += remaining;

    while (remaining > 0 && !ctx.queue_.empty()) {
        ExecContext::Prepared &front = ctx.queue_.front();
        Tick left = front.duration - ctx.frontAttributed_;
        Tick g = std::min(left, remaining);
        creditFront(front, g);
        remaining -= g;
        ctx.ahead_ -= g;
        if (ctx.frontAttributed_ == front.duration) {
            ctx.queue_.pop_front();
            ctx.frontAttributed_ = 0;
            ctx.frontCredited_ = zeroEvents();
            ctx.frontFlopsCredited_ = 0.0;
            // The retired chunk may have been the coalescing tail.
            if (ctx.queue_.empty())
                ctx.backMergeable_ = false;
        }
    }
    attributedUpTo_ = now;
}

void
CpuCore::charge(const ChargeSpec &spec)
{
    // Charges may nest (module work inside a syscall window), so the
    // cursor may already lead simulated time; it must never trail it.
    panic_if(attributedUpTo_ < eq_.curTick(),
             "core ", id_, ": charge without syncTo");
    if (spec.duration == 0)
        return;

    Cycles cyc = clock_.ticksToCyclesCeil(spec.duration);
    std::uint64_t instructions = spec.instructions;
    if (instructions == 0) {
        instructions = static_cast<std::uint64_t>(
            static_cast<double>(cyc) * cfg_.pipeline.kernelIpc);
    }

    // Generic kernel/service instruction mix.
    EventVector ev = zeroEvents();
    at(ev, HwEvent::instRetired) = instructions;
    at(ev, HwEvent::coreCycles) = cyc;
    at(ev, HwEvent::refCycles) = refClock_.ticksToCycles(spec.duration);
    at(ev, HwEvent::branchRetired) = instructions / 6;
    at(ev, HwEvent::branchMispredicted) = instructions / 200;
    at(ev, HwEvent::loadRetired) = instructions / 4;
    at(ev, HwEvent::storeRetired) = instructions / 8;

    // Pollute the caches with the charge's working set.
    std::uint64_t lines =
        spec.footprintBytes / cfg_.l1d.lineSize;
    std::uint64_t mem_ops =
        at(ev, HwEvent::loadRetired) + at(ev, HwEvent::storeRetired);
    at(ev, HwEvent::l1dReference) = mem_ops;
    if (lines > 0) {
        Addr base = spec.footprintBase;
        if (base == 0) {
            base = kernelScratchBase +
                   static_cast<Addr>(id_) * kernelScratchStride;
        }
        std::uint64_t touched =
            std::min<std::uint64_t>(lines, cfg_.memSampleCap);
        std::uint64_t l1_miss = 0, l2_miss = 0, llc_ref = 0,
                      llc_miss = 0;
        const Addr lineSize = cfg_.l1d.lineSize;
        // Stride across the footprint; rotate the start so repeated
        // charges revisit the same lines (a warm working set) while
        // still walking all of it over time.  The cursor may predate
        // a smaller footprint, hence the one modulo.
        std::uint64_t line = kernelScratchCursor_ % lines;
        for (std::uint64_t i = 0; i < touched; ++i) {
            AccessOutcome out = mem_.accessNonTemporal(
                base + line * lineSize, (i % 8) == 0);
            if (++line == lines)
                line = 0;
            if (out.l1Miss)
                ++l1_miss;
            if (out.l2Miss)
                ++l2_miss;
            if (out.llcRef)
                ++llc_ref;
            if (out.llcMiss)
                ++llc_miss;
        }
        kernelScratchCursor_ = line;
        double scale = static_cast<double>(
                           std::min<std::uint64_t>(lines, mem_ops)) /
                       static_cast<double>(touched);
        if (scale < 1.0)
            scale = 1.0;
        auto sc = [&](std::uint64_t n) {
            return static_cast<std::uint64_t>(
                std::llround(static_cast<double>(n) * scale));
        };
        at(ev, HwEvent::l1dMiss) = sc(l1_miss);
        at(ev, HwEvent::l2Reference) = sc(l1_miss);
        at(ev, HwEvent::l2Miss) = sc(l2_miss);
        at(ev, HwEvent::llcReference) = sc(llc_ref);
        at(ev, HwEvent::llcMiss) = sc(llc_miss);
    }

    pmu_.addEvents(ev, spec.priv);
    busyTime_ += spec.duration;
    attributedUpTo_ += spec.duration;
}

void
CpuCore::countEvent(HwEvent ev, std::uint64_t n, PrivLevel priv)
{
    EventVector v = zeroEvents();
    at(v, ev) = n;
    pmu_.addEvents(v, priv);
}

} // namespace klebsim::hw
