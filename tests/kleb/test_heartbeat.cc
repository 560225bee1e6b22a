/**
 * @file
 * Regression tests for the shared heartbeat cell (kleb/supervisor).
 *
 * The cell is the one piece of controller/supervisor state that
 * models true shared memory, so its fields are std::atomic: a
 * stamping writer and a polling reader must never tear a Tick or
 * lose a beat.  These tests drive the cell from real host threads —
 * the `tsan` CI job runs them under TSan, which would flag any
 * regression back to plain fields immediately.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>

#include "kleb/supervisor.hh"

namespace
{

using klebsim::Tick;
using klebsim::kleb::Heartbeat;

TEST(HeartbeatCell, ConcurrentStampAndPollStaysCoherent)
{
    Heartbeat hb;
    constexpr std::uint64_t stamps = 20000;
    constexpr Tick stride = 1000;

    std::thread stamper([&hb] {
        // The controller's onSyscallOk pattern: stamp the tick,
        // then count the beat.
        for (std::uint64_t k = 1; k <= stamps; ++k) {
            hb.lastBeat.store(k * stride,
                              std::memory_order_relaxed);
            hb.beats.fetch_add(1, std::memory_order_relaxed);
        }
    });

    // The supervisor's poll pattern: one snapshot per judgment.
    // Every observed value must be a value the writer actually
    // stored (tear-free) and — single writer, single location —
    // coherence makes successive reads monotonic.
    Tick prev = 0;
    while (hb.beats.load(std::memory_order_relaxed) < stamps) {
        const Tick last =
            hb.lastBeat.load(std::memory_order_relaxed);
        ASSERT_EQ(last % stride, 0u) << "torn read";
        ASSERT_GE(last, prev) << "beat went backwards";
        prev = last;
    }
    stamper.join();

    EXPECT_EQ(hb.lastBeat.load(std::memory_order_relaxed),
              stamps * stride);
    EXPECT_EQ(hb.beats.load(std::memory_order_relaxed), stamps);
}

TEST(HeartbeatCell, StalenessIsJudgedFromOneSnapshot)
{
    // The supervisor snapshots lastBeat once per evaluation; this
    // pins the arithmetic it applies to the snapshot.  With the
    // cell restamped concurrently, two separate loads could mix a
    // stale "now > last" with a fresh "now - last", so the
    // judgment must be a pure function of (now, snapshot, timeout).
    auto stale = [](Tick now, Tick snapshot, Tick timeout) {
        return now > snapshot && now - snapshot > timeout;
    };
    EXPECT_FALSE(stale(1000, 1000, 50)); // just beat
    EXPECT_FALSE(stale(1040, 1000, 50)); // within timeout
    EXPECT_FALSE(stale(1050, 1000, 50)); // boundary: not yet late
    EXPECT_TRUE(stale(1051, 1000, 50));  // one past the timeout
    EXPECT_FALSE(stale(900, 1000, 50));  // grace stamp in the future
}

TEST(HeartbeatCell, ManyStampersNeverLoseABeat)
{
    // Several controller incarnations would never stamp at once in
    // a real session, but the cell must still count correctly if
    // they did (fetch_add, not load-modify-store).
    Heartbeat hb;
    constexpr int threads = 4;
    constexpr std::uint64_t each = 5000;
    std::vector<std::thread> stampers;
    stampers.reserve(threads);
    for (int t = 0; t < threads; ++t)
        stampers.emplace_back([&hb] {
            for (std::uint64_t k = 0; k < each; ++k)
                hb.beats.fetch_add(1, std::memory_order_relaxed);
        });
    for (std::thread &t : stampers)
        t.join();
    EXPECT_EQ(hb.beats.load(std::memory_order_relaxed),
              threads * each);
}

} // anonymous namespace
