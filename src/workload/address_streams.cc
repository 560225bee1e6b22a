#include "address_streams.hh"

#include <algorithm>
#include <vector>

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
MemPatternSpec::strided(std::uint64_t footprint, std::uint64_t stride,
                        double write_frac)
{
    MemPatternSpec s;
    s.kind = Kind::strided;
    s.footprintBytes = footprint;
    s.strideBytes = stride;
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

MemPatternSpec
MemPatternSpec::pointerChase(std::uint64_t footprint,
                             double write_frac)
{
    MemPatternSpec s;
    s.kind = Kind::pointerChase;
    s.footprintBytes = footprint;
    s.writeFraction = write_frac;
    return s;
}

namespace
{

class SequentialStream : public hw::AddressStream
{
  public:
    SequentialStream(Addr base, std::uint64_t footprint,
                     std::uint64_t stride, double write_frac,
                     Random rng)
        : base_(base), footprint_(footprint), stride_(stride),
          writeFrac_(write_frac), offset_(0), rng_(rng)
    {
        panic_if(footprint_ == 0, "sequential stream: empty region");
        panic_if(stride_ == 0, "sequential stream: zero stride");
    }

    void
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
        offset_ += stride_;
        if (offset_ >= footprint_)
            offset_ = 0;
        return ref;
    }

    Addr base_;
    std::uint64_t footprint_;
    std::uint64_t stride_;
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

    void
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

    void
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

class PointerChaseStream : public hw::AddressStream
{
  public:
    PointerChaseStream(Addr base, std::uint64_t footprint,
                       double write_frac, Random rng)
        : base_(base), writeFrac_(write_frac), rng_(rng)
    {
        panic_if(footprint < 64, "pointer chase: region too small");
        // Sattolo's algorithm builds a single cycle through every
        // line: next_[i] is "the pointer stored in line i".
        std::uint64_t lines =
            std::min<std::uint64_t>(footprint / 64, 1 << 20);
        next_.resize(lines);
        for (std::uint64_t i = 0; i < lines; ++i)
            next_[i] = i;
        for (std::uint64_t i = lines - 1; i > 0; --i) {
            std::uint64_t j =
                rng_.below(static_cast<std::uint32_t>(i));
            std::swap(next_[i], next_[j]);
        }
    }

    void
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
        ref.addr = base_ + cursor_ * 64;
        ref.write = rng_.chance(writeFrac_);
        cursor_ = next_[cursor_];
        return ref;
    }

    Addr base_;
    double writeFrac_;
    Random rng_;
    std::vector<std::uint64_t> next_;
    std::uint64_t cursor_ = 0;
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
            base, spec.footprintBytes, 64, spec.writeFraction, rng);
      case MemPatternSpec::Kind::strided:
        return std::make_unique<SequentialStream>(
            base, spec.footprintBytes, spec.strideBytes,
            spec.writeFraction, rng);
      case MemPatternSpec::Kind::randomUniform:
        return std::make_unique<RandomStream>(
            base, spec.footprintBytes, spec.writeFraction, rng);
      case MemPatternSpec::Kind::hotCold:
        return std::make_unique<HotColdStream>(
            base, spec.hotBytes, spec.footprintBytes,
            spec.hotProbability, spec.writeFraction, rng);
      case MemPatternSpec::Kind::pointerChase:
        return std::make_unique<PointerChaseStream>(
            base, spec.footprintBytes, spec.writeFraction, rng);
    }
    panic("unhandled MemPatternSpec kind");
}

} // namespace klebsim::workload
