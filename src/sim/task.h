/**
 * @file
 * Lazy coroutine task type used to express simulated processes.
 *
 * A Task<T> is a coroutine that starts suspended and runs when awaited;
 * completion resumes the awaiter by symmetric transfer. Simulated
 * processes (applications, segment managers, the file server, database
 * transactions) are written as ordinary coroutines that co_await delays,
 * futures and other tasks; the Simulation event loop drives them.
 *
 * Task is one template for every T, void included: the only part of its
 * promise that depends on T, how the result reaches the awaiter, is
 * detail::TaskResult<T>.
 *
 * A Task may also hold its result without a frame: Task<T>::ready(v),
 * or a default Task<>, completes at once when awaited. A virtual hook
 * whose default never suspends returns one, so only overrides that
 * wait build a coroutine frame.
 */

#ifndef VPP_SIM_TASK_H
#define VPP_SIM_TASK_H

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define VPP_POOL_POISON(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define VPP_POOL_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#else
#define VPP_POOL_POISON(p, n) ((void)(p), (void)(n))
#define VPP_POOL_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace vpp::sim {

namespace detail {

/**
 * Thread-local size-class recycler for coroutine frames.
 *
 * The fault hot path suspends through several short-lived coroutines
 * (the fault loop -> crossing -> handler -> page fill), each of whose
 * frames would otherwise be a malloc/free pair. Frames are
 * recycled through per-thread free lists bucketed by 64-byte size
 * class; each simulation — and in a sharded run each logical shard —
 * is drained by exactly one thread, so no locking is needed.
 * Oversized frames fall through to the global allocator.
 *
 * Cross-thread lifetimes are still safe: a frame allocated on thread
 * A (e.g. a task spawned during single-threaded setup) and released
 * on shard-worker thread B simply enters B's free list; releaseTo()
 * is the variant for blocks that cross threads routinely, and keeps
 * few of them. Both paths bottom out in the global operator
 * new/delete, and each free list is touched only by its own thread,
 * so no block is ever accessed by two threads at once.
 *
 * Under AddressSanitizer a block on a free list is poisoned, so a
 * pointer into a released frame faults on use, as it would had the
 * block gone back to the heap.
 */
class FramePool
{
  public:
    static void *
    allocate(std::size_t n)
    {
        const std::size_t cls = (n + kGranule - 1) >> kShift;
        Lists &l = lists();
        ++l.handedOut;
        if (cls < kClasses) {
            void *&head = l.free[cls];
            if (head) {
                void *out = head;
                VPP_POOL_UNPOISON(out, cls << kShift);
                head = *static_cast<void **>(out);
                return out;
            }
            return ::operator new(cls << kShift);
        }
        return ::operator new(n);
    }

    static void
    release(void *p, std::size_t n) noexcept
    {
        const std::size_t cls = (n + kGranule - 1) >> kShift;
        if (cls < kClasses) {
            push(lists().free[cls], p, cls);
            return;
        }
        ::operator delete(p);
    }

    /** This thread's pool, as releaseTo() takes it. */
    static const void *owner() { return &lists(); }

    /** Blocks allocate() has handed out on this thread so far. */
    static std::uint64_t handedOut() { return lists().handedOut; }

    /**
     * Release a block allocate() gave out on the thread whose owner()
     * is @p pool. This thread's own block goes to its free list, as
     * release() does. Another thread's joins the list only if that
     * list is empty, and the global heap takes it otherwise: blocks
     * one thread allocates and another releases (cross-shard mail)
     * cannot pile up in the releasing thread's lists when the traffic
     * runs one way or in sizes that differ each way, while a
     * ping-pong of one size still reuses its blocks.
     */
    static void
    releaseTo(const void *pool, void *p, std::size_t n) noexcept
    {
        const std::size_t cls = (n + kGranule - 1) >> kShift;
        Lists &l = lists();
        if (cls < kClasses && (pool == &l || !l.free[cls])) {
            push(l.free[cls], p, cls);
            return;
        }
        ::operator delete(p);
    }

  private:
    static constexpr std::size_t kShift = 6;
    static constexpr std::size_t kGranule = std::size_t{1} << kShift;
    /// Blocks of up to 4 KB: frames, and the engine's same-instant
    /// ring up to 64 entries (3,072 bytes).
    static constexpr std::size_t kClasses = 65;

    /** Put block @p p of class @p cls on the free list @p head. */
    static void
    push(void *&head, void *p, std::size_t cls) noexcept
    {
        *static_cast<void **>(p) = head;
        head = p;
        VPP_POOL_POISON(p, cls << kShift);
    }

    struct Lists
    {
        void *free[kClasses] = {};
        std::uint64_t handedOut = 0;

        ~Lists()
        {
            for (std::size_t cls = 0; cls < kClasses; ++cls) {
                for (void *head = free[cls]; head;) {
                    VPP_POOL_UNPOISON(head, cls << kShift);
                    void *next = *static_cast<void **>(head);
                    ::operator delete(head);
                    head = next;
                }
            }
        }
    };

    static Lists &
    lists()
    {
        thread_local Lists tl;
        return tl;
    }
};

#undef VPP_POOL_POISON
#undef VPP_POOL_UNPOISON

/** Mixin giving a promise type (and thus its frames) pooled storage. */
struct PooledFrame
{
    static void *
    operator new(std::size_t n)
    {
        return FramePool::allocate(n);
    }

    static void
    operator delete(void *p, std::size_t n) noexcept
    {
        FramePool::release(p, n);
    }
};

/** std-allocator façade over FramePool (shared futures, etc.). */
template <typename T>
struct PoolAlloc
{
    using value_type = T;

    PoolAlloc() = default;

    template <typename U>
    PoolAlloc(const PoolAlloc<U> &) noexcept
    {}

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(FramePool::allocate(n * sizeof(T)));
    }

    void
    deallocate(T *p, std::size_t n) noexcept
    {
        FramePool::release(p, n * sizeof(T));
    }

    template <typename U>
    bool
    operator==(const PoolAlloc<U> &) const noexcept
    {
        return true;
    }
};

/** State and behaviour shared by all task promise types. */
class PromiseBase : public PooledFrame
{
  public:
    /** Tasks are lazy: they run only once awaited (or detached). */
    std::suspend_always initial_suspend() noexcept { return {}; }

    /**
     * On completion, transfer control back to whoever awaited this
     * task. If nobody did (yet), stay suspended; the Task destructor
     * or the awaiter will clean up.
     */
    struct FinalAwaiter
    {
        bool await_ready() noexcept { return false; }

        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<> h) noexcept
        {
            auto &p = *static_cast<PromiseBase *>(basePromise);
            (void)h;
            if (p.continuation)
                return p.continuation;
            return std::noop_coroutine();
        }

        void await_resume() noexcept {}

        PromiseBase *basePromise;
    };

    void unhandled_exception() noexcept { error = std::current_exception(); }

    std::coroutine_handle<> continuation;
    std::exception_ptr error;
};

/**
 * The one part of a promise that depends on T: how the result reaches
 * the awaiter. A value waits in the promise until take() moves it out.
 */
template <typename T>
struct TaskResult
{
    template <typename U>
    void
    return_value(U &&v)
    {
        value.emplace(std::forward<U>(v));
    }

    T
    take()
    {
        assert(value.has_value());
        return std::move(*value);
    }

    std::optional<T> value;
};

template <>
struct TaskResult<void>
{
    void return_void() noexcept {}
    void take() noexcept {}
};

} // namespace detail

/**
 * FramePool blocks handed out on this thread so far: coroutine frames,
 * pooled vectors, future states and cross-shard mail, whether a free
 * list or the global heap supplied them. Read it before and after the
 * work to count, as mem::threadAllocations() is read.
 */
inline std::uint64_t
threadFrameBlocks()
{
    return detail::FramePool::handedOut();
}

/**
 * A std::vector in FramePool storage: a short-lived one allocates
 * nothing from the global heap in steady state.
 */
template <typename T>
using PoolVector = std::vector<T, detail::PoolAlloc<T>>;

/**
 * A lazily-started coroutine returning T, or a result that is ready
 * without one. Move-only; owns the coroutine frame until
 * awaited-to-completion or destroyed.
 */
template <typename T = void>
class Task
{
  public:
    class promise_type : public detail::PromiseBase,
                         public detail::TaskResult<T>
    {
      public:
        Task
        get_return_object()
        {
            return Task(
                std::coroutine_handle<promise_type>::from_promise(*this));
        }

        FinalAwaiter
        final_suspend() noexcept
        {
            return FinalAwaiter{this};
        }
    };

    /** A Task<> that completes at once; for other T, no result yet. */
    Task() noexcept = default;

    explicit Task(std::coroutine_handle<promise_type> h) noexcept
        : handle_(h)
    {}

    /** A task whose result @p v is ready: awaiting it builds no frame. */
    template <typename U>
    static Task
    ready(U &&v)
        requires(!std::is_void_v<T>)
    {
        Task t;
        t.ready_.return_value(std::forward<U>(v));
        return t;
    }

    Task(Task &&o) noexcept
        : handle_(std::exchange(o.handle_, nullptr)),
          ready_(std::move(o.ready_))
    {}

    Task &
    operator=(Task &&o) noexcept
    {
        if (this != &o) {
            destroy();
            handle_ = std::exchange(o.handle_, nullptr);
            ready_ = std::move(o.ready_);
        }
        return *this;
    }

    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    ~Task() { destroy(); }

    /** Whether the task has a coroutine frame. */
    bool valid() const noexcept { return handle_ != nullptr; }
    bool done() const noexcept { return handle_ && handle_.done(); }

    /**
     * Starts the task and suspends until it completes; a task without
     * a frame completes at once. An awaiter that runs a task as its
     * slow path may drive one over the task it owns.
     */
    class Awaiter
    {
      public:
        explicit Awaiter(Task &t) noexcept : t_(&t) {}

        bool
        await_ready() const noexcept
        {
            return !t_->handle_ || t_->handle_.done();
        }

        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<> awaiting) noexcept
        {
            t_->handle_.promise().continuation = awaiting;
            return t_->handle_;
        }

        T
        await_resume()
        {
            if (!t_->handle_)
                return t_->ready_.take();
            auto &p = t_->handle_.promise();
            if (p.error)
                std::rethrow_exception(p.error);
            return p.take();
        }

      private:
        Task *t_;
    };

    Awaiter operator co_await() && noexcept { return Awaiter(*this); }

  private:
    void
    destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = nullptr;
        }
    }

    std::coroutine_handle<promise_type> handle_;
    /// The result of a task without a frame; empty for Task<>, which
    /// so stays one pointer wide.
    [[no_unique_address]] detail::TaskResult<T> ready_;
};

static_assert(sizeof(Task<>) == sizeof(void *));

} // namespace vpp::sim

#endif // VPP_SIM_TASK_H
