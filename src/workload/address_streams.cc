#include "address_streams.hh"

#include "base/logging.hh"

namespace klebsim::workload
{

MemPatternSpec
MemPatternSpec::none_()
{
    return MemPatternSpec{};
}

MemPatternSpec
MemPatternSpec::sequential(std::uint64_t footprint, double write_frac)
{
    MemPatternSpec s;
    s.kind = Kind::sequential;
    s.footprintBytes = footprint;
    s.writeFraction = write_frac;
    return s;
}

MemPatternSpec
MemPatternSpec::randomUniform(std::uint64_t footprint,
                              double write_frac)
{
    MemPatternSpec s;
    s.kind = Kind::randomUniform;
    s.footprintBytes = footprint;
    s.writeFraction = write_frac;
    return s;
}

MemPatternSpec
MemPatternSpec::hotCold(std::uint64_t hot, std::uint64_t footprint,
                        double hot_prob, double write_frac)
{
    MemPatternSpec s;
    s.kind = Kind::hotCold;
    s.hotBytes = hot;
    s.footprintBytes = footprint;
    s.hotProbability = hot_prob;
    s.writeFraction = write_frac;
    return s;
}

namespace
{

// Each stream's fillBatch() is 64-byte aligned, as are the walk
// bodies in hw/mem_hierarchy.cc: they hold the simulator's hot
// loops, and the alignment keeps their placement from moving with
// unrelated code.

class SequentialStream : public hw::AddressStream
{
  public:
    SequentialStream(Addr base, std::uint64_t footprint,
                     double write_frac, Random rng)
        : base_(base), footprint_(footprint), writeFrac_(write_frac),
          offset_(0), rng_(rng)
    {
        panic_if(footprint_ == 0, "sequential stream: empty region");
    }

    [[gnu::aligned(64)]] void
    fillBatch(Addr *addrs, std::uint8_t *writes,
              std::size_t n) override
    {
        for (std::size_t i = 0; i < n; ++i) {
            hw::MemRef ref = step();
            addrs[i] = ref.addr;
            writes[i] = ref.write ? 1 : 0;
        }
    }

  private:
    hw::MemRef
    step()
    {
        hw::MemRef ref;
        ref.addr = base_ + offset_;
        ref.write = rng_.chance(writeFrac_);
        offset_ += 64;
        if (offset_ >= footprint_)
            offset_ = 0;
        return ref;
    }

    Addr base_;
    std::uint64_t footprint_;
    double writeFrac_;
    std::uint64_t offset_;
    Random rng_;
};

class RandomStream : public hw::AddressStream
{
  public:
    RandomStream(Addr base, std::uint64_t footprint,
                 double write_frac, Random rng)
        : base_(base), footprint_(footprint),
          writeFrac_(write_frac), rng_(rng)
    {
        panic_if(footprint_ == 0, "random stream: empty region");
    }

    [[gnu::aligned(64)]] void
    fillBatch(Addr *addrs, std::uint8_t *writes,
              std::size_t n) override
    {
        for (std::size_t i = 0; i < n; ++i) {
            hw::MemRef ref = step();
            addrs[i] = ref.addr;
            writes[i] = ref.write ? 1 : 0;
        }
    }

  private:
    friend class HotColdStream;

    hw::MemRef
    step()
    {
        hw::MemRef ref;
        std::uint64_t off = rng_.next64() % footprint_;
        ref.addr = base_ + (off & ~Addr(7)); // 8-byte aligned
        ref.write = rng_.chance(writeFrac_);
        return ref;
    }

    Addr base_;
    std::uint64_t footprint_;
    double writeFrac_;
    Random rng_;
};

class HotColdStream : public hw::AddressStream
{
  public:
    HotColdStream(Addr base, std::uint64_t hot,
                  std::uint64_t footprint, double hot_prob,
                  double write_frac, Random rng)
        : hot_(base, hot, write_frac, rng.fork(1)),
          cold_(base + hot, footprint > hot ? footprint - hot : hot,
                write_frac, rng.fork(2)),
          hotProb_(hot_prob), rng_(rng)
    {
    }

    [[gnu::aligned(64)]] void
    fillBatch(Addr *addrs, std::uint8_t *writes,
              std::size_t n) override
    {
        for (std::size_t i = 0; i < n; ++i) {
            hw::MemRef ref = rng_.chance(hotProb_) ? hot_.step()
                                                   : cold_.step();
            addrs[i] = ref.addr;
            writes[i] = ref.write ? 1 : 0;
        }
    }

  private:
    RandomStream hot_;
    RandomStream cold_;
    double hotProb_;
    Random rng_;
};

} // anonymous namespace

std::unique_ptr<hw::AddressStream>
makeAddressStream(const MemPatternSpec &spec, Addr base, Random rng)
{
    switch (spec.kind) {
      case MemPatternSpec::Kind::none:
        return nullptr;
      case MemPatternSpec::Kind::sequential:
        return std::make_unique<SequentialStream>(
            base, spec.footprintBytes, spec.writeFraction, rng);
      case MemPatternSpec::Kind::randomUniform:
        return std::make_unique<RandomStream>(
            base, spec.footprintBytes, spec.writeFraction, rng);
      case MemPatternSpec::Kind::hotCold:
        return std::make_unique<HotColdStream>(
            base, spec.hotBytes, spec.footprintBytes,
            spec.hotProbability, spec.writeFraction, rng);
    }
    panic("unhandled MemPatternSpec kind");
}

} // namespace klebsim::workload
