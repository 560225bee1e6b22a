/**
 * @file
 * Fixed-capacity single-producer ring buffer.
 *
 * Used as the kernel-space sample pool in the K-LEB module (paper
 * section III): the timer interrupt handler pushes samples and the
 * controller process pops them.  When full, push() fails and the
 * caller engages the paper's "safety mechanism" (pause collection
 * until the consumer frees space).
 *
 * The store is reserved at construction but each slot is built on
 * its first push, so until the tail first wraps the ring touches
 * one slot per element ever pushed.  A 16384-slot K-LEB ring of
 * 72-byte samples reserves 1.18 MB; a session that takes a few
 * hundred samples touches a few pages of it.
 */

#ifndef KLEBSIM_BASE_RING_BUFFER_HH
#define KLEBSIM_BASE_RING_BUFFER_HH

#include <cstddef>
#include <vector>

#include "logging.hh"

namespace klebsim
{

/**
 * Bounded FIFO with drop-on-full semantics.
 *
 * @tparam T element type (copyable, default-constructible).
 */
template <typename T>
class RingBuffer
{
  public:
    /** Construct with a fixed capacity (must be > 0). */
    explicit RingBuffer(std::size_t capacity) : capacity_(capacity)
    {
        panic_if(capacity == 0, "RingBuffer capacity must be > 0");
        buf_.reserve(capacity);
    }

    /** @return number of queued elements. */
    std::size_t size() const { return size_; }

    /** @return maximum number of elements. */
    std::size_t capacity() const { return capacity_; }

    /** @return true if no elements are queued. */
    bool empty() const { return size_ == 0; }

    /** @return true if at capacity (push would fail). */
    bool full() const { return size_ == capacity_; }

    /** @return remaining free slots. */
    std::size_t freeSlots() const { return capacity_ - size_; }

    /**
     * Append an element.
     * @return false (element dropped) if the buffer is full.
     */
    bool
    push(const T &value)
    {
        if (full())
            return false;
        // Until the tail first wraps it runs one past the last
        // built slot.  resize() then assignment, not push_back():
        // GCC 12 -O2 reports a false -Warray-bounds on the latter
        // after reserve().
        if (tail_ == buf_.size())
            buf_.resize(tail_ + 1);
        buf_[tail_] = value;
        tail_ = advance(tail_);
        ++size_;
        return true;
    }

    /** Oldest element (undefined when empty; check first). */
    const T &
    front() const
    {
        panic_if(empty(), "RingBuffer::front on empty buffer");
        return buf_[head_];
    }

    /**
     * Remove the oldest element into @p out.
     * @return false if the buffer was empty.
     */
    bool
    pop(T &out)
    {
        if (empty())
            return false;
        out = buf_[head_];
        head_ = advance(head_);
        --size_;
        return true;
    }

    /** Discard all queued elements (built slots are reused). */
    void
    clear()
    {
        head_ = tail_ = 0;
        size_ = 0;
    }

  private:
    std::size_t
    advance(std::size_t idx) const
    {
        ++idx;
        return idx == capacity_ ? 0 : idx;
    }

    std::size_t capacity_;
    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t tail_ = 0;
    std::size_t size_ = 0;
};

} // namespace klebsim

#endif // KLEBSIM_BASE_RING_BUFFER_HH
