#include "sim/mem_accounting.h"

#include <cstddef>
#include <cstdlib>
#include <new>

// The hooks ride on malloc_usable_size so operator delete can charge
// the exact block size without a shadow table. Compile them out when
// a sanitizer owns the allocator or the libc lacks the call.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define VPP_MEM_HOOKS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define VPP_MEM_HOOKS 0
#endif
#endif

#ifndef VPP_MEM_HOOKS
#if defined(__GLIBC__)
#include <malloc.h>
#define VPP_MEM_HOOKS 1
#else
#define VPP_MEM_HOOKS 0
#endif
#endif

namespace {

// Zero-initialised before any dynamic initialisation runs, so the
// hooks are safe for allocations made during program startup.
thread_local std::int64_t tCurrent = 0;
thread_local std::int64_t tPeak = 0;
thread_local std::uint64_t tAllocations = 0;

} // namespace

namespace vpp::sim::mem {

bool
hooksActive()
{
    return VPP_MEM_HOOKS != 0;
}

std::int64_t
threadCurrentBytes()
{
    return tCurrent;
}

std::uint64_t
threadAllocations()
{
    return tAllocations;
}

std::int64_t
threadPeakBytes()
{
    return tPeak;
}

void
resetThreadPeak()
{
    tPeak = tCurrent;
}

void
absorbChildPeak(std::int64_t bytes)
{
    if (bytes <= 0)
        return;
    if (tCurrent + bytes > tPeak)
        tPeak = tCurrent + bytes;
}

} // namespace vpp::sim::mem

#if VPP_MEM_HOOKS

namespace {

void
account(void *p) noexcept
{
    ++tAllocations;
    tCurrent += static_cast<std::int64_t>(malloc_usable_size(p));
    if (tCurrent > tPeak)
        tPeak = tCurrent;
}

void
unaccount(void *p) noexcept
{
    if (p != nullptr)
        tCurrent -= static_cast<std::int64_t>(malloc_usable_size(p));
}

void *
allocOrHandler(std::size_t n)
{
    for (;;) {
        void *p = std::malloc(n != 0 ? n : 1);
        if (p != nullptr)
            return p;
        std::new_handler h = std::get_new_handler();
        if (h == nullptr)
            throw std::bad_alloc();
        h();
    }
}

void *
alignedAllocOrHandler(std::size_t n, std::size_t align)
{
    if (align < sizeof(void *))
        align = sizeof(void *);
    for (;;) {
        void *p = nullptr;
        if (posix_memalign(&p, align, n != 0 ? n : 1) == 0)
            return p;
        std::new_handler h = std::get_new_handler();
        if (h == nullptr)
            throw std::bad_alloc();
        h();
    }
}

} // namespace

// The array and nothrow forms fall through to these by default, and
// the default sized deletes call the unsized ones, so replacing the
// four below accounts for every ordinary allocation.

void *
operator new(std::size_t n)
{
    void *p = allocOrHandler(n);
    account(p);
    return p;
}

void *
operator new(std::size_t n, std::align_val_t align)
{
    void *p =
        alignedAllocOrHandler(n, static_cast<std::size_t>(align));
    account(p);
    return p;
}

void
operator delete(void *p) noexcept
{
    unaccount(p);
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    unaccount(p);
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    unaccount(p);
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    unaccount(p);
    std::free(p);
}

#endif // VPP_MEM_HOOKS
