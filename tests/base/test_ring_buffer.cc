#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>

#include "base/ring_buffer.hh"

using klebsim::RingBuffer;

TEST(RingBuffer, StartsEmpty)
{
    RingBuffer<int> rb(4);
    EXPECT_TRUE(rb.empty());
    EXPECT_FALSE(rb.full());
    EXPECT_EQ(rb.size(), 0u);
    EXPECT_EQ(rb.capacity(), 4u);
    EXPECT_EQ(rb.freeSlots(), 4u);
}

TEST(RingBuffer, PushPopFifo)
{
    RingBuffer<int> rb(4);
    EXPECT_TRUE(rb.push(1));
    EXPECT_TRUE(rb.push(2));
    EXPECT_TRUE(rb.push(3));
    int v = 0;
    EXPECT_TRUE(rb.pop(v));
    EXPECT_EQ(v, 1);
    EXPECT_TRUE(rb.pop(v));
    EXPECT_EQ(v, 2);
    EXPECT_TRUE(rb.pop(v));
    EXPECT_EQ(v, 3);
    EXPECT_FALSE(rb.pop(v));
}

TEST(RingBuffer, RejectsWhenFull)
{
    RingBuffer<int> rb(2);
    EXPECT_TRUE(rb.push(1));
    EXPECT_TRUE(rb.push(2));
    EXPECT_TRUE(rb.full());
    EXPECT_FALSE(rb.push(3));
    EXPECT_EQ(rb.size(), 2u);
}

TEST(RingBuffer, WrapAround)
{
    RingBuffer<int> rb(3);
    int v = 0;
    for (int round = 0; round < 10; ++round) {
        EXPECT_TRUE(rb.push(round * 2));
        EXPECT_TRUE(rb.push(round * 2 + 1));
        EXPECT_TRUE(rb.pop(v));
        EXPECT_EQ(v, round * 2);
        EXPECT_TRUE(rb.pop(v));
        EXPECT_EQ(v, round * 2 + 1);
    }
    EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, Clear)
{
    RingBuffer<int> rb(4);
    rb.push(1);
    rb.push(2);
    rb.clear();
    EXPECT_TRUE(rb.empty());
    EXPECT_TRUE(rb.push(9));
    int v;
    EXPECT_TRUE(rb.pop(v));
    EXPECT_EQ(v, 9);
}

TEST(RingBuffer, CapacityOne)
{
    RingBuffer<int> rb(1);
    EXPECT_TRUE(rb.push(7));
    EXPECT_TRUE(rb.full());
    EXPECT_FALSE(rb.push(8));
    int v;
    EXPECT_TRUE(rb.pop(v));
    EXPECT_EQ(v, 7);
    EXPECT_TRUE(rb.push(8));
}

TEST(RingBuffer, MatchesDequeReference)
{
    // Push, pop and clear sequences checked against a std::deque
    // with the same drop-on-full rule, every observable after every
    // step.  Each ring takes random operations from its first push,
    // so pops and clears land while slots are still being built.
    // The first ring per capacity starts with a scripted prefix: a
    // partial fill, clear(), a refill to capacity, then pops and
    // pushes that wrap the tail over slots built before the clear.
    std::uint32_t rng = 20261018;
    for (std::size_t cap = 1; cap <= 5; ++cap) {
        for (int trial = 0; trial < 20; ++trial) {
            SCOPED_TRACE(testing::Message()
                         << "capacity " << cap << " trial " << trial);
            RingBuffer<int> rb(cap);
            std::deque<int> ref;
            int next_val = 1;

            auto check = [&] {
                EXPECT_EQ(rb.capacity(), cap);
                EXPECT_EQ(rb.size(), ref.size());
                EXPECT_EQ(rb.empty(), ref.empty());
                EXPECT_EQ(rb.full(), ref.size() == cap);
                EXPECT_EQ(rb.freeSlots(), cap - ref.size());
                if (!ref.empty()) {
                    EXPECT_EQ(rb.front(), ref.front());
                }
            };
            auto push = [&] {
                const int v = next_val++;
                const bool fits = ref.size() < cap;
                if (fits)
                    ref.push_back(v);
                EXPECT_EQ(rb.push(v), fits) << "push " << v;
                check();
            };
            auto pop = [&] {
                int got = -1;
                const bool had = !ref.empty();
                EXPECT_EQ(rb.pop(got), had);
                if (had) {
                    EXPECT_EQ(got, ref.front());
                    ref.pop_front();
                }
                check();
            };
            auto clear = [&] {
                rb.clear();
                ref.clear();
                check();
            };

            if (trial == 0) {
                for (std::size_t i = 0;
                     i < std::max<std::size_t>(1, cap - 1); ++i)
                    push();
                clear();
                for (std::size_t i = 0; i <= cap; ++i)
                    push();
                pop();
                pop();
                for (int i = 0; i < 3; ++i)
                    push();
            }
            for (int i = 0; i < 40; ++i) {
                rng = rng * 1664525u + 1013904223u;
                const std::uint32_t op = (rng >> 16) % 16;
                if (op < 8)
                    push();
                else if (op < 15)
                    pop();
                else
                    clear();
            }
        }
    }
}
