#include "meltdown.hh"

#include <algorithm>

#include "base/logging.hh"
#include "hw/mem_hierarchy.hh"

namespace klebsim::workload
{

namespace
{

/** Printer program phases: format + write the string out. */
std::vector<Phase>
printerPhases(std::uint64_t instructions)
{
    // Calibrated to the paper's clean-program profile: <10 ms
    // lifetime, ~7.5 MPKI (hot/cold rates chosen accordingly).
    Phase fmt;
    fmt.name = "format";
    fmt.instructions = instructions * 2 / 3;
    fmt.loadFrac = 0.26;
    fmt.storeFrac = 0.09;
    fmt.branchFrac = 0.16;
    fmt.baseIpc = 1.9;
    fmt.mem = MemPatternSpec::hotCold(24 * 1024, 64 * 1024 * 1024,
                                      0.979, 0.3);

    Phase out;
    out.name = "write-out";
    out.instructions = instructions - fmt.instructions;
    out.loadFrac = 0.22;
    out.storeFrac = 0.16;
    out.branchFrac = 0.14;
    out.baseIpc = 1.6;
    out.priv = hw::PrivLevel::kernel; // write(2) time
    out.mem = MemPatternSpec::hotCold(16 * 1024, 64 * 1024 * 1024,
                                      0.978, 0.5);
    return {fmt, out};
}

} // anonymous namespace

std::unique_ptr<PhaseWorkload>
makeSecretPrinter(Addr base, Random rng)
{
    // ~8 ms on the 2.67 GHz model (base IPC plus miss stalls).
    return std::make_unique<PhaseWorkload>(
        "secret-printer", printerPhases(16000000), base, rng);
}

MeltdownWorkload::MeltdownWorkload(MeltdownParams params,
                                   Addr probe_base, Random rng)
    : params_(std::move(params)), probeBase_(probe_base),
      secretBase_(probe_base + 0x40000000ULL), rng_(rng)
{
    fatal_if(params_.secret.empty(), "meltdown: empty secret");
    // Same printer program split around the attack burst, so the
    // attack run's non-attack instruction total matches the clean
    // run's.
    prologue_ = std::make_unique<PhaseWorkload>(
        "meltdown-prologue", printerPhases(3000000), probe_base,
        rng.fork(1));
    epilogue_ = std::make_unique<PhaseWorkload>(
        "meltdown-epilogue", printerPhases(13000000), probe_base,
        rng.fork(2));
}

MeltdownWorkload::~MeltdownWorkload() = default;

void
MeltdownWorkload::reset()
{
    prologue_->reset();
    epilogue_->reset();
    byteIdx_ = 0;
    retry_ = 0;
    recovered_.clear();
    correctRounds_ = 0;
    totalRounds_ = 0;
    votes_.fill(0);
}

bool
MeltdownWorkload::done() const
{
    return prologue_->done() &&
           byteIdx_ >= params_.secret.size() && epilogue_->done();
}

double
MeltdownWorkload::recoveryAccuracy() const
{
    if (totalRounds_ == 0)
        return 0.0;
    return static_cast<double>(correctRounds_) /
           static_cast<double>(totalRounds_);
}

hw::WorkChunk
MeltdownWorkload::attackRound(hw::MemHierarchy &mem)
{
    using hw::HwEvent;

    const auto secret_byte = static_cast<std::uint8_t>(
        params_.secret[byteIdx_]);
    const std::uint64_t stride = params_.probeStride;

    hw::EventVector ev = hw::zeroEvents();
    std::uint64_t stall = 0;
    std::uint64_t instructions = 0;

    auto tally = [&](const hw::AccessOutcome &out, bool write) {
        hw::accumulate(ev,
                       hw::MemHierarchy::outcomeEvents(out, write));
        stall += out.cycles;
        ++instructions;
    };

    // Phase 1: flush the probe array (256 CLFLUSHes).
    for (int i = 0; i < 256; ++i) {
        mem.clflush(probeBase_ + static_cast<Addr>(i) * stride);
        instructions += 3; // clflush + loop bookkeeping
        stall += 40;
    }

    // Phase 2: the transient window.  The faulting kernel load
    // microarchitecturally forwards the secret byte; the dependent
    // load pulls probe[secret] into the caches before the fault
    // architecturally squashes everything.
    {
        hw::AccessOutcome leak = mem.access(
            probeBase_ + static_cast<Addr>(secret_byte) * stride);
        // The transient load is squashed: it perturbs the caches but
        // retires nothing, so it is NOT tallied into retired-event
        // counts — only its cache side effects persist.
        (void)leak;
    }
    // Fault delivery + SIGSEGV handler round trip.
    instructions += 1400;

    // Phase 3: reload each probe line and time it; the resident
    // line (LLC hit or better) reveals the byte.
    int inferred = -1;
    for (int i = 0; i < 256; ++i) {
        hw::AccessOutcome out =
            mem.access(probeBase_ + static_cast<Addr>(i) * stride);
        tally(out, false);
        instructions += 8; // rdtsc pair + compare + branch
        if (out.level != hw::MemLevel::dram && inferred < 0)
            inferred = i;
    }

    ++totalRounds_;
    if (inferred >= 0)
        ++votes_[static_cast<std::size_t>(inferred)];
    if (inferred == static_cast<int>(secret_byte))
        ++correctRounds_;

    if (++retry_ >= params_.retriesPerByte) {
        // Commit the majority vote for this byte.
        auto best = std::max_element(votes_.begin(), votes_.end());
        recovered_.push_back(static_cast<char>(
            best - votes_.begin()));
        votes_.fill(0);
        retry_ = 0;
        ++byteIdx_;
    }

    hw::WorkChunk chunk;
    chunk.preExecuted = true;
    at(ev, HwEvent::instRetired) = instructions;
    at(ev, HwEvent::branchRetired) += instructions / 5;
    at(ev, HwEvent::branchMispredicted) += instructions / 160;
    chunk.instructions = instructions;
    chunk.baseIpc = 1.4;
    chunk.mispredictRate = 0.0;
    chunk.preEvents = ev;
    chunk.preStallCycles = stall;
    return chunk;
}

hw::WorkChunk
MeltdownWorkload::nextChunk(hw::MemHierarchy &mem)
{
    panic_if(done(), "meltdown: nextChunk past end");
    if (!prologue_->done())
        return prologue_->nextChunk(mem);
    if (byteIdx_ < params_.secret.size())
        return attackRound(mem);
    return epilogue_->nextChunk(mem);
}

} // namespace klebsim::workload
