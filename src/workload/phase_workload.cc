#include "phase_workload.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "hw/mem_hierarchy.hh"

namespace klebsim::workload
{

PhaseWorkload::PhaseWorkload(std::string name,
                             std::vector<Phase> phases, Addr base,
                             Random rng,
                             std::uint64_t chunk_instructions)
    : name_(std::move(name)), phases_(std::move(phases)),
      base_(base), masterRng_(rng), rng_(rng),
      chunkInstr_(chunk_instructions)
{
    fatal_if(phases_.empty(), "workload '", name_, "': no phases");
    fatal_if(chunkInstr_ == 0, "workload '", name_,
             "': zero chunk size");
    reset();
}

void
PhaseWorkload::reset()
{
    rng_ = masterRng_;
    phaseIdx_ = 0;
    stream_.reset();
    retired_.clear();
    enterPhase(0);
}

void
PhaseWorkload::enterPhase(std::size_t idx)
{
    phaseIdx_ = idx;
    warmPending_ = true;
    if (stream_)
        retired_.push_back(std::move(stream_));
    if (idx >= phases_.size()) {
        phaseRemaining_ = 0;
        return;
    }
    const Phase &ph = phases_[idx];
    phaseRemaining_ = ph.instructions;
    stream_ = makeAddressStream(ph.mem, base_,
                                rng_.fork(0xabcd00 + idx));
    if (phaseRemaining_ == 0)
        enterPhase(idx + 1);
}

bool
PhaseWorkload::done() const
{
    return phaseIdx_ >= phases_.size();
}

hw::WorkChunk
PhaseWorkload::nextChunk(hw::MemHierarchy &mem)
{
    panic_if(done(), "workload '", name_, "': nextChunk past end");

    const Phase &ph = phases_[phaseIdx_];

    // Working-set warming: the chunk engine samples only a bounded
    // number of real accesses per chunk, which would starve a
    // cache-resident working set of the reuse that keeps it warm
    // (every sparse sample would look like a cold first touch).
    // Touching the reused region once at phase entry restores the
    // steady-state residency the sampled accesses then measure.
    // Regions too large to be cache-resident anyway are skipped.
    if (warmPending_ &&
        ph.mem.kind != MemPatternSpec::Kind::none) {
        std::uint64_t bytes =
            ph.mem.kind == MemPatternSpec::Kind::hotCold
                ? ph.mem.hotBytes
                : ph.mem.footprintBytes;
        std::uint64_t lines = bytes / 64;
        if (lines <= 32768) {
            for (std::uint64_t i = 0; i < lines; ++i)
                mem.access(base_ + i * 64);
        }
    }
    warmPending_ = false;
    std::uint64_t n = std::min(chunkInstr_, phaseRemaining_);

    hw::WorkChunk chunk;
    chunk.instructions = n;
    auto frac = [&](double f) {
        return static_cast<std::uint64_t>(
            std::llround(static_cast<double>(n) * f));
    };
    chunk.loads = frac(ph.loadFrac);
    chunk.stores = frac(ph.storeFrac);
    chunk.branches = frac(ph.branchFrac);
    chunk.muls = frac(ph.mulFrac);
    chunk.divs = frac(ph.divFrac);
    chunk.fpops = frac(ph.fpFrac);
    chunk.mispredictRate = ph.mispredictRate;
    chunk.baseIpc = ph.baseIpc;
    chunk.stallExposureScale = ph.stallExposureScale;
    chunk.priv = ph.priv;
    chunk.stream = stream_.get();
    if (ph.instructions > 0) {
        chunk.flops = ph.flops * static_cast<double>(n) /
                      static_cast<double>(ph.instructions);
    }

    phaseRemaining_ -= n;
    if (phaseRemaining_ == 0)
        enterPhase(phaseIdx_ + 1);
    return chunk;
}

std::uint64_t
PhaseWorkload::totalInstructions() const
{
    std::uint64_t sum = 0;
    for (const Phase &ph : phases_)
        sum += ph.instructions;
    return sum;
}

double
PhaseWorkload::totalFlops() const
{
    double sum = 0;
    for (const Phase &ph : phases_)
        sum += ph.flops;
    return sum;
}

std::vector<Phase>
repeatPhases(const std::vector<Phase> &body, std::size_t times)
{
    std::vector<Phase> out;
    out.reserve(body.size() * times);
    for (std::size_t i = 0; i < times; ++i)
        out.insert(out.end(), body.begin(), body.end());
    return out;
}

std::vector<Phase>
concatPhases(std::vector<Phase> a, const std::vector<Phase> &b)
{
    a.insert(a.end(), b.begin(), b.end());
    return a;
}

} // namespace klebsim::workload
