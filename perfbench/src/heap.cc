/**
 * @file
 * Live-heap accounting for the benchmark binary: every C++ allocation
 * the program and the benchmark make goes through these replacements
 * of the global allocation functions, which track live bytes (as
 * malloc_usable_size reports them) and their peak.
 */

#include "heap.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <malloc.h>
#include <new>

namespace
{

alignas(64) std::atomic<long long> liveBytes{0};
alignas(64) std::atomic<long long> peakBytes{0};

void *
track(void *p)
{
    if (!p)
        return p;
    const auto size = static_cast<long long>(malloc_usable_size(p));
    const long long now =
        liveBytes.fetch_add(size, std::memory_order_relaxed) + size;
    long long peak = peakBytes.load(std::memory_order_relaxed);
    while (now > peak &&
           !peakBytes.compare_exchange_weak(peak, now,
                                            std::memory_order_relaxed))
    {
    }
    return p;
}

void
release(void *p) noexcept
{
    if (!p)
        return;
    liveBytes.fetch_sub(static_cast<long long>(malloc_usable_size(p)),
                        std::memory_order_relaxed);
    std::free(p);
}

void *
allocate(std::size_t n)
{
    void *p = track(std::malloc(n ? n : 1));
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *
allocateAligned(std::size_t n, std::align_val_t al)
{
    void *p = nullptr;
    const std::size_t align =
        std::max(static_cast<std::size_t>(al), sizeof(void *));
    if (posix_memalign(&p, align, n ? n : 1) != 0)
        throw std::bad_alloc();
    return track(p);
}

} // namespace

namespace perfbench
{

double
peakHeapMb()
{
    return static_cast<double>(peakBytes.load()) / 1e6;
}

} // namespace perfbench

void *operator new(std::size_t n) { return allocate(n); }
void *operator new[](std::size_t n) { return allocate(n); }
void *operator new(std::size_t n, std::align_val_t al)
{
    return allocateAligned(n, al);
}
void *operator new[](std::size_t n, std::align_val_t al)
{
    return allocateAligned(n, al);
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return track(std::malloc(n ? n : 1));
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return track(std::malloc(n ? n : 1));
}

void operator delete(void *p) noexcept { release(p); }
void operator delete[](void *p) noexcept { release(p); }
void operator delete(void *p, std::size_t) noexcept { release(p); }
void operator delete[](void *p, std::size_t) noexcept { release(p); }
void operator delete(void *p, std::align_val_t) noexcept { release(p); }
void operator delete[](void *p, std::align_val_t) noexcept { release(p); }

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    release(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    release(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    release(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    release(p);
}
