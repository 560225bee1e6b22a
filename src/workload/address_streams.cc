#include "address_streams.hh"

#include <algorithm>

#include "base/cpu_features.hh"
#include "base/intmath.hh"
#include "base/logging.hh"

namespace klebsim::workload
{

MemPatternSpec
MemPatternSpec::none_()
{
    return MemPatternSpec{};
}

MemPatternSpec
MemPatternSpec::sequential(std::uint64_t footprint)
{
    MemPatternSpec s;
    s.kind = Kind::sequential;
    s.footprintBytes = footprint;
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

// Each stream's fill bodies are 64-byte aligned, as are the walk
// bodies in hw/mem_hierarchy.cc: they hold the simulator's hot
// loops, and the alignment keeps their placement from moving with
// unrelated code.
//
// The lane bodies work on local copies of their generators and
// fields (Random::Lanes): a store to the address lane could alias a
// member, and the compiler would then reload it, and redo the lane
// draws' set-up, for every block of eight.

/** @p footprint, which must not be empty, of a @p kind stream. */
std::uint64_t
checkedFootprint(std::uint64_t footprint, const char *kind)
{
    panic_if(footprint == 0, kind, " stream: empty region");
    return footprint;
}

#if defined(__x86_64__)
/** Most accesses a hot/cold lane fill handles in one pass. */
constexpr std::size_t laneSegment = 256;

/** The first @p r of eight lanes, 1 <= r <= 8. */
inline __mmask8
firstLanes(std::size_t r)
{
    return static_cast<__mmask8>(0xFFu >> (8 - r));
}
#endif

class SequentialStream final : public PatternStream
{
  public:
    SequentialStream(Addr base, std::uint64_t footprint)
        : base_(base),
          footprint_(checkedFootprint(footprint, "sequential")),
          offset_(0)
    {
    }

    /**
     * The addresses are a counter and take no draws, so this one body
     * serves both fills.  It works on local copies, as the lane bodies
     * do, so that a store to the address lane forces no reload.
     */
    [[gnu::aligned(64)]] void
    fillScalar(Addr *addrs, std::size_t n) override
    {
        const Addr base = base_;
        const std::uint64_t footprint = footprint_;
        std::uint64_t offset = offset_;
        for (std::size_t i = 0; i < n; ++i) {
            addrs[i] = base + offset;
            offset += 64;
            if (offset >= footprint)
                offset = 0;
        }
        offset_ = offset;
    }

  private:
    Addr base_;
    std::uint64_t footprint_;
    std::uint64_t offset_;
};

class RandomStream final : public PatternStream
{
  public:
    RandomStream(Addr base, std::uint64_t footprint,
                 double write_frac, Random rng)
        : base_(base), footprint_(checkedFootprint(footprint, "random")),
          writeFrac_(write_frac), rng_(rng), laneModulo_(footprint_)
    {
    }

    [[gnu::aligned(64)]] void
    fillScalar(Addr *addrs, std::size_t n) override
    {
        for (std::size_t i = 0; i < n; ++i)
            addrs[i] = step();
    }

#if defined(__x86_64__)
    /**
     * A step draws its offset with one next64() and, unless the write
     * fraction decides without drawing, its write flag with a second,
     * so step k's offset is draws d * k and d * k + 1, with d = 2 or
     * 4, and the lanes jump over the write draws.
     */
    [[gnu::target("avx512f,avx512dq"), gnu::aligned(64)]] void
    fillLanes(Addr *addrs, std::size_t n) override
    {
        Random::Lanes lanes(rng_, 2 + Random::chanceDraws(writeFrac_));
        const LaneModulo modFootprint = laneModulo_;
        const __m512i base = _mm512_set1_epi64(static_cast<long long>(base_));
        const __m512i aligned = _mm512_set1_epi64(~7LL);
        for (std::size_t i = 0; i < n; i += 8) {
            const std::size_t r = std::min<std::size_t>(n - i, 8);
            const __m512i off = modFootprint(lanes.peek());
            _mm512_mask_storeu_epi64(
                addrs + i, firstLanes(r),
                _mm512_add_epi64(base, _mm512_and_si512(off, aligned)));
            lanes.skip(r);
        }
        rng_ = lanes.random();
    }
#endif

  private:
    friend class HotColdStream;

    Addr
    step()
    {
        const std::uint64_t off = rng_.next64() % footprint_;
        // The write flag is drawn and dropped (MemPatternSpec::
        // writeFraction).
        rng_.chance(writeFrac_);
        return base_ + (off & ~Addr(7)); // 8-byte aligned
    }

    Addr base_;
    std::uint64_t footprint_;
    double writeFrac_;
    Random rng_;
    LaneModulo laneModulo_; //!< footprint_, for the lane body
};

class HotColdStream final : public PatternStream
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
    fillScalar(Addr *addrs, std::size_t n) override
    {
        for (std::size_t i = 0; i < n; ++i)
            addrs[i] = rng_.chance(hotProb_) ? hot_.step() : cold_.step();
    }

#if defined(__x86_64__)
    /**
     * In segments of up to laneSegment accesses: first every choice,
     * eight per lane draw, compared as chance() compares
     * (Random::chanceBound); then as many hot and cold addresses as
     * the choices took, by each side's own lane body; then the two
     * merged block by block under the choice masks (vpexpandq), so
     * that the k-th hot address lands on the k-th hot access.  In
     * one pass per block, each side's jump would wait on that block's
     * choices; in three, only the choices' own jumps chain.
     */
    [[gnu::target("avx512f,avx512dq"), gnu::aligned(64)]] void
    fillLanes(Addr *addrs, std::size_t n) override
    {
        if (Random::chanceDraws(hotProb_) == 0)
            return (hotProb_ >= 1.0 ? hot_ : cold_).fillLanes(addrs, n);
        Random::Lanes choice(rng_, 2);
        const __m512i bound = _mm512_set1_epi64(
            static_cast<long long>(Random::chanceBound(hotProb_)));
        for (std::size_t at = 0; at < n; at += laneSegment) {
            const std::size_t m = std::min(n - at, laneSegment);
            __mmask8 toHot[laneSegment / 8];
            std::size_t hots = 0;
            for (std::size_t i = 0; i < m; i += 8) {
                const std::size_t r = std::min<std::size_t>(m - i, 8);
                toHot[i / 8] = _mm512_mask_cmplt_epu64_mask(
                    firstLanes(r),
                    _mm512_maskz_srli_epi64(0xFF, choice.peek(), 11),
                    bound);
                choice.skip(r);
                hots += static_cast<std::size_t>(
                    __builtin_popcount(toHot[i / 8]));
            }
            Addr hot[laneSegment];
            Addr cold[laneSegment];
            hot_.fillLanes(hot, hots);
            cold_.fillLanes(cold, m - hots);
            const Addr *h = hot;
            const Addr *c = cold;
            for (std::size_t i = 0; i < m; i += 8) {
                const __mmask8 used =
                    firstLanes(std::min<std::size_t>(m - i, 8));
                const auto toCold =
                    static_cast<__mmask8>(used & ~toHot[i / 8]);
                _mm512_mask_storeu_epi64(
                    addrs + at + i, used,
                    _mm512_mask_expandloadu_epi64(
                        _mm512_maskz_expandloadu_epi64(toHot[i / 8], h),
                        toCold, c));
                h += __builtin_popcount(toHot[i / 8]);
                c += __builtin_popcount(toCold);
            }
        }
        rng_ = choice.random();
    }
#endif

  private:
    RandomStream hot_;
    RandomStream cold_;
    double hotProb_;
    Random rng_;
};

} // anonymous namespace

void
PatternStream::fillBatch(Addr *addrs, std::size_t n)
{
#if defined(__x86_64__)
    if (hostHasAvx512dq())
        return fillLanes(addrs, n);
#endif
    fillScalar(addrs, n);
}

std::unique_ptr<PatternStream>
makeAddressStream(const MemPatternSpec &spec, Addr base, Random rng)
{
    switch (spec.kind) {
      case MemPatternSpec::Kind::none:
        return nullptr;
      case MemPatternSpec::Kind::sequential:
        return std::make_unique<SequentialStream>(base,
                                                  spec.footprintBytes);
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
