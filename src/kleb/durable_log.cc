#include "durable_log.hh"

#include <algorithm>
#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

#include "base/cpu_features.hh"
#include "base/logging.hh"

namespace klebsim::kleb
{

namespace
{

/** Reflected CRC32C lookup table, built once per process. */
const std::array<std::uint32_t, 256> &
crcTable()
{
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? (0x82f63b78u ^ (c >> 1)) : (c >> 1);
            t[i] = c;
        }
        return t;
    }();
    return table;
}

#if defined(__x86_64__)
/**
 * SSE4.2's `crc32` computes the same reflected Castagnoli CRC as
 * the table, one 8-byte little-endian word per instruction, then
 * byte by byte for the tail.
 */
__attribute__((target("sse4.2"))) std::uint32_t
crc32cSse42(const std::uint8_t *data, std::size_t len,
            std::uint32_t seed)
{
    std::uint64_t crc = ~seed;
    for (; len >= 8; data += 8, len -= 8) {
        std::uint64_t word;
        std::memcpy(&word, data, sizeof(word));
        crc = _mm_crc32_u64(crc, word);
    }
    auto crc32 = static_cast<std::uint32_t>(crc);
    for (; len > 0; ++data, --len)
        crc32 = _mm_crc32_u8(crc32, *data);
    return ~crc32;
}
#endif

void
put32(std::vector<std::uint8_t> &out, std::size_t at,
      std::uint32_t v)
{
    out[at + 0] = static_cast<std::uint8_t>(v);
    out[at + 1] = static_cast<std::uint8_t>(v >> 8);
    out[at + 2] = static_cast<std::uint8_t>(v >> 16);
    out[at + 3] = static_cast<std::uint8_t>(v >> 24);
}

void
put64(std::vector<std::uint8_t> &out, std::size_t at,
      std::uint64_t v)
{
    put32(out, at, static_cast<std::uint32_t>(v));
    put32(out, at + 4, static_cast<std::uint32_t>(v >> 32));
}

} // anonymous namespace

std::uint32_t
crc32c(const std::uint8_t *data, std::size_t len,
       std::uint32_t seed)
{
#if defined(__x86_64__)
    if (hostHasSse42())
        return crc32cSse42(data, len, seed);
#endif
    return crc32cPortable(data, len, seed);
}

std::uint32_t
crc32cPortable(const std::uint8_t *data, std::size_t len,
               std::uint32_t seed)
{
    const auto &table = crcTable();
    std::uint32_t crc = ~seed;
    for (std::size_t i = 0; i < len; ++i)
        crc = table[(crc ^ data[i]) & 0xff] ^ (crc >> 8);
    return ~crc;
}

DurableLog::DurableLog()
{
    bytes_.assign(headerSize, 0);
    updateHeader();
}

void
DurableLog::reserveFrames(std::size_t frames)
{
    // Never below doubling, so that many small reservations still
    // grow the medium geometrically.
    const std::size_t need = bytes_.size() + frames * frameSize;
    if (need > bytes_.capacity())
        bytes_.reserve(std::max(need, 2 * bytes_.capacity()));
}

void
DurableLog::updateHeader()
{
    put32(bytes_, 0, logMagic);
    put32(bytes_, 4, version);
    put64(bytes_, 8, framesAppended_);
    put32(bytes_, 16, epochsOpened_);
    put32(bytes_, 20, 0);
    put64(bytes_, 24, samplesAppended_);
}

void
DurableLog::writeFrame(FrameKind kind, Tick timestamp,
                       const Sample &s)
{
    const std::size_t at = bytes_.size();
    bytes_.resize(at + frameSize, 0);

    put32(bytes_, at + 0, frameMagic);
    // Epoch ids are 0-based; epochsOpened_ was already bumped for
    // epochBegin frames, so the current epoch is epochsOpened_ - 1.
    put32(bytes_, at + 8, epochsOpened_ - 1);
    put32(bytes_, at + 12, static_cast<std::uint32_t>(kind));
    put64(bytes_, at + 16, framesAppended_);
    put64(bytes_, at + 24, timestamp);
    bytes_[at + 32] = static_cast<std::uint8_t>(s.cause);
    bytes_[at + 33] = s.numEvents;
    // Core id in two of the frame's reserved bytes: core 0 writes
    // zeros, so pre-SMP media stay bit-for-bit identical.
    bytes_[at + 34] = static_cast<std::uint8_t>(s.core);
    bytes_[at + 35] = static_cast<std::uint8_t>(s.core >> 8);
    for (std::size_t i = 0; i < maxSampleEvents; ++i)
        put64(bytes_, at + 40 + 8 * i, s.counts[i]);

    // The CRC covers everything after itself: [at+8, at+96).
    put32(bytes_, at + 4,
          crc32c(bytes_.data() + at + 8, frameSize - 8));

    ++framesAppended_;
    updateHeader();
}

std::uint32_t
DurableLog::beginEpoch(Tick now)
{
    ++epochsOpened_;
    Sample blank{};
    writeFrame(FrameKind::epochBegin, now, blank);
    return epochsOpened_ - 1;
}

void
DurableLog::append(const Sample &s)
{
    panic_if(epochsOpened_ == 0,
             "DurableLog::append before beginEpoch");
    ++samplesAppended_;
    writeFrame(FrameKind::sample, s.timestamp, s);
}

void
DurableLog::recordRateChange(Tick now, Tick old_period,
                             Tick new_period)
{
    panic_if(epochsOpened_ == 0,
             "DurableLog::recordRateChange before beginEpoch");
    panic_if(new_period == 0,
             "DurableLog::recordRateChange to zero period");
    Sample s{};
    s.counts[0] = old_period;
    s.counts[1] = new_period;
    ++rateChangesAppended_;
    writeFrame(FrameKind::rateChange, now, s);
}

} // namespace klebsim::kleb
