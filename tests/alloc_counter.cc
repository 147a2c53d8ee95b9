#include "alloc_counter.hh"

#include <atomic>
#include <cstdlib>
#include <new>

namespace
{
std::atomic<uint64_t> g_allocations{0};
}

uint64_t
rtm::globalAllocationCount()
{
    return g_allocations.load(std::memory_order_relaxed);
}

void *
operator new(std::size_t size)
{
    ++g_allocations;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
