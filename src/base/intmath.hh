/**
 * @file
 * Integer math helpers used by the cache, PMU and address-stream
 * models.
 */

#ifndef KLEBSIM_BASE_INTMATH_HH
#define KLEBSIM_BASE_INTMATH_HH

#include <cstdint>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace klebsim
{

/** True if @p v is a power of two (0 is not). */
constexpr bool
isPowerOf2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Floor of log2(v); v must be non-zero. */
constexpr int
floorLog2(std::uint64_t v)
{
    int r = 0;
    while (v >>= 1)
        ++r;
    return r;
}

/** Ceiling of log2(v); v must be non-zero. */
constexpr int
ceilLog2(std::uint64_t v)
{
    return v <= 1 ? 0 : floorLog2(v - 1) + 1;
}

/** Round @p v up to the next multiple of @p align (a power of two). */
constexpr std::uint64_t
roundUp(std::uint64_t v, std::uint64_t align)
{
    return (v + align - 1) & ~(align - 1);
}

/** Round @p v down to a multiple of @p align (a power of two). */
constexpr std::uint64_t
roundDown(std::uint64_t v, std::uint64_t align)
{
    return v & ~(align - 1);
}

/** Ceiling division for unsigned integers. */
constexpr std::uint64_t
divCeil(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

/**
 * Left-shift @p v by @p shift, saturating at the type maximum
 * instead of wrapping (or hitting UB for shift >= 64).  Used by
 * exponential-backoff computations where a large base or retry
 * count must degrade to "sleep a very long time", never to a
 * short wrapped sleep.
 */
constexpr std::uint64_t
saturatingShl(std::uint64_t v, int shift)
{
    if (v == 0)
        return 0;
    if (shift >= 64 || shift < 0 ||
        v > (~std::uint64_t(0) >> shift))
        return ~std::uint64_t(0);
    return v << shift;
}

/**
 * x % d for a fixed d >= 1 on eight 64-bit lanes, exact for every x,
 * with no divide instruction: a mask when d is a power of two, and
 * otherwise the round-up reciprocal of Granlund and Montgomery,
 * "Division by Invariant Integers using Multiplication" (PLDI 1994),
 * Fig. 4.1.  With l = ceilLog2(d) and m = floor(2^64 (2^l - d) / d)
 * + 1, which fits in 64 bits, the quotient is (t + ((x - t) >> 1))
 * >> (l - 1), where t is the high half of m * x, and the remainder
 * is x - q * d.
 */
class LaneModulo
{
  public:
    explicit LaneModulo(std::uint64_t d)
        : d_(d), shift_(isPowerOf2(d) ? 0 : ceilLog2(d) - 1)
    {
        if (!isPowerOf2(d)) {
            // 2^l - d; at l = 64 the shift wraps to 0, which leaves
            // 2^64 - d, as wanted.
            const std::uint64_t excess = (std::uint64_t(2) << shift_) - d;
            magic_ = static_cast<std::uint64_t>(
                         (static_cast<unsigned __int128>(excess) << 64) /
                         d) +
                     1;
        }
    }

#if defined(__x86_64__)
    /** Each lane of @p x modulo d, on a host with AVX-512F and DQ. */
    [[gnu::target("avx512f,avx512dq")]] __m512i
    operator()(__m512i x) const
    {
        if (magic_ == 0)
            return _mm512_and_si512(
                x, _mm512_set1_epi64(static_cast<long long>(d_ - 1)));
        const __m512i d = _mm512_set1_epi64(static_cast<long long>(d_));
        const __m512i t = mulHigh(x);
        const __m512i q = _mm512_maskz_srl_epi64(
            0xFF,
            _mm512_add_epi64(
                t, _mm512_maskz_srli_epi64(0xFF, _mm512_sub_epi64(x, t),
                                           1)),
            _mm_cvtsi32_si128(static_cast<int>(shift_)));
        return _mm512_sub_epi64(x, _mm512_mullo_epi64(q, d));
    }
#endif

  private:
#if defined(__x86_64__)
    /**
     * The high 64 bits of magic_ * x per lane, from the four 32 x
     * 32-bit partial products; no partial sum overflows 64 bits.
     */
    [[gnu::target("avx512f")]] __m512i
    mulHigh(__m512i x) const
    {
        const __m512i low32 = _mm512_set1_epi64(0xFFFFFFFFLL);
        const __m512i m = _mm512_set1_epi64(static_cast<long long>(magic_));
        const __m512i mHi = _mm512_maskz_srli_epi64(0xFF, m, 32);
        const __m512i xHi = _mm512_maskz_srli_epi64(0xFF, x, 32);
        const __m512i ll = _mm512_maskz_mul_epu32(0xFF, x, m);
        const __m512i lh = _mm512_maskz_mul_epu32(0xFF, x, mHi);
        const __m512i hl = _mm512_maskz_mul_epu32(0xFF, xHi, m);
        const __m512i hh = _mm512_maskz_mul_epu32(0xFF, xHi, mHi);
        const __m512i mid =
            _mm512_add_epi64(hl, _mm512_maskz_srli_epi64(0xFF, ll, 32));
        const __m512i mid2 =
            _mm512_add_epi64(lh, _mm512_and_si512(mid, low32));
        return _mm512_add_epi64(
            hh, _mm512_add_epi64(_mm512_maskz_srli_epi64(0xFF, mid, 32),
                                 _mm512_maskz_srli_epi64(0xFF, mid2, 32)));
    }
#endif

    std::uint64_t d_;
    std::uint64_t magic_ = 0; //!< 0 when d_ is a power of two
    unsigned shift_;          //!< l - 1
};

} // namespace klebsim

#endif // KLEBSIM_BASE_INTMATH_HH
