/**
 * @file
 * Crash-durable sample log (DESIGN.md section 11).
 *
 * The controller's drain path appends every sample to this
 * append-only byte log in addition to its in-memory log.  The
 * format is built so that any crash — of the controller, mid-append
 * tear, or bit rot on the medium — is detectable by construction:
 *
 *  - a 32-byte header carries writer-side metadata (frames appended,
 *    epochs opened) that survives because it is updated atomically
 *    at the simulation level per append;
 *  - the body is a sequence of fixed-size 96-byte frames, each
 *    carrying a magic, a CRC32C over its payload, a monotonically
 *    increasing global sequence number, and the epoch it belongs to;
 *  - a new *epoch* frame is written each time a controller
 *    incarnation (re-)arms monitoring, so post-crash recovery can
 *    splice pre-crash and post-restart data around an explicit gap.
 *
 * Fixed-size frames mean a torn tail is exactly one partial slot and
 * a corrupted frame consumes exactly one sequence number, so
 * LogRecovery's accounting balances exactly:
 * kept + dropped + vanished == header.framesAppended.
 */

#ifndef KLEBSIM_KLEB_DURABLE_LOG_HH
#define KLEBSIM_KLEB_DURABLE_LOG_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/types.hh"
#include "sample.hh"

namespace klebsim::kleb
{

/**
 * CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78),
 * the checksum used by iSCSI/ext4/Btrfs journals.  On x86-64 hosts
 * with SSE4.2 it runs the `crc32` instruction, 8 bytes at a time;
 * elsewhere it is crc32cPortable().  The CPU check is made once per
 * process, and both paths give the same value for every input and
 * seed.
 */
std::uint32_t crc32c(const std::uint8_t *data, std::size_t len,
                     std::uint32_t seed = 0);

/** crc32c() as a byte-at-a-time table loop, on any host. */
std::uint32_t crc32cPortable(const std::uint8_t *data,
                             std::size_t len,
                             std::uint32_t seed = 0);

/** What a durable-log frame carries. */
enum class FrameKind : std::uint32_t
{
    epochBegin = 0, //!< a controller incarnation armed monitoring
    sample = 1,     //!< one drained Sample

    /**
     * The sampling period changed (adaptive governor).  The frame
     * reuses the sample payload slots: counts[0] = old period,
     * counts[1] = new period, numEvents = 0.  Journaled in the same
     * syscall as the SET_PERIOD ioctl so recovery can re-space a
     * series whose period varied mid-run.
     */
    rateChange = 2,
};

/**
 * The append-only log.  The "medium" is an in-memory byte vector;
 * the harness hands it (possibly corrupted by the fault injector)
 * to LogRecovery after the run.
 */
class DurableLog
{
  public:
    static constexpr std::size_t headerSize = 32;
    static constexpr std::size_t frameSize = 96;
    static constexpr std::uint32_t logMagic = 0x31474c4b;   // "KLG1"
    static constexpr std::uint32_t frameMagic = 0x314d464b; // "KFM1"
    static constexpr std::uint32_t version = 1;

    DurableLog();

    /**
     * Open a new epoch at simulated time @p now; all samples
     * appended until the next beginEpoch belong to it.
     * @return the epoch id (0-based).
     */
    std::uint32_t beginEpoch(Tick now);

    /** Append one sample frame (an epoch must be open). */
    void append(const Sample &s);

    /**
     * Append a rate-change frame (an epoch must be open): the
     * HRTimer period moved from @p old_period to @p new_period at
     * simulated time @p now.
     */
    void recordRateChange(Tick now, Tick old_period,
                          Tick new_period);

    /**
     * Make room for @p frames more frames, so that appending them
     * does not reallocate the medium.
     */
    void reserveFrames(std::size_t frames);

    /** The raw medium: header followed by frames. */
    const std::vector<std::uint8_t> &bytes() const { return bytes_; }

    /** Frames (epoch + sample) the writer has appended. */
    std::uint64_t framesAppended() const { return framesAppended_; }

    /** Epochs opened so far. */
    std::uint32_t epochsOpened() const { return epochsOpened_; }

    /** Sample frames appended so far. */
    std::uint64_t samplesAppended() const { return samplesAppended_; }

    /** Rate-change frames appended so far. */
    std::uint64_t rateChangesAppended() const
    { return rateChangesAppended_; }

  private:
    void writeFrame(FrameKind kind, Tick timestamp, const Sample &s);
    void updateHeader();

    std::vector<std::uint8_t> bytes_;
    std::uint64_t framesAppended_ = 0;
    std::uint32_t epochsOpened_ = 0;
    std::uint64_t samplesAppended_ = 0;
    std::uint64_t rateChangesAppended_ = 0;
};

} // namespace klebsim::kleb

#endif // KLEBSIM_KLEB_DURABLE_LOG_HH
