/**
 * @file
 * Synchronisation primitives for simulated processes.
 *
 * All primitives are cooperative and single-threaded: the simulation is
 * deterministic, so there is no data-race concern, only ordering. Every
 * resumption goes through the event queue at the current timestamp so
 * that wakeup order is FIFO and independent of who calls notify.
 *
 * Every blocking primitive (Semaphore, Condition, Future and the
 * database's MultiModeLock) queues its parked coroutines on one
 * detail::WaitList, linked through their awaiters, so a wait allocates
 * nothing. A WaitList never owns or destroys a frame and reads a node
 * only to wake it; a frame destroyed while parked (the engine's
 * teardown) leaves its node behind, so nothing may signal a primitive
 * from a destructor.
 */

#ifndef VPP_SIM_SYNC_H
#define VPP_SIM_SYNC_H

#include <coroutine>
#include <cstddef>
#include <deque>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "sim/simulation.h"
#include "sim/task.h"
#include "sim/time.h"

namespace vpp::sim {

namespace detail {

/**
 * A coroutine parked on a WaitList. Each awaiter that can suspend
 * derives from Waiter and, while its coroutine waits, lives in that
 * coroutine's frame as its own queue node.
 */
struct Waiter
{
    std::coroutine_handle<> handle;
    Waiter *next = nullptr;
};

/** FIFO of parked Waiters, linked through the waiters themselves. */
class WaitList
{
  public:
    bool empty() const noexcept { return !head_; }
    std::size_t size() const noexcept { return size_; }

    /** The longest-parked waiter; the list must not be empty. */
    Waiter &front() const noexcept { return *head_; }

    /** Park @p w, whose coroutine @p h is suspending, at the back. */
    void
    push(Waiter &w, std::coroutine_handle<> h) noexcept
    {
        w.handle = h;
        w.next = nullptr;
        if (tail_)
            tail_->next = &w;
        else
            head_ = &w;
        tail_ = &w;
        ++size_;
    }

    /**
     * Unlink the front waiter and schedule its resumption at the
     * current instant. The node stays valid until that event resumes
     * its frame.
     */
    void
    wakeFront(Simulation &sim)
    {
        Waiter &w = *head_;
        head_ = w.next;
        if (!head_)
            tail_ = nullptr;
        --size_;
        sim.scheduleResume(sim.now(), w.handle);
    }

  private:
    Waiter *head_ = nullptr;
    Waiter *tail_ = nullptr;
    std::size_t size_ = 0;
};

/** Readiness and waiters shared by both FutureState specialisations. */
struct FutureWaiters
{
    Simulation *sim;
    bool ready = false;
    WaitList waiters;

    void
    fire()
    {
        ready = true;
        while (!waiters.empty())
            waiters.wakeFront(*sim);
    }
};

template <typename T>
struct FutureState : FutureWaiters
{
    std::optional<T> value;
    std::exception_ptr error;
};

template <>
struct FutureState<void> : FutureWaiters
{
    std::exception_ptr error;
};

} // namespace detail

/**
 * One-shot future. Multiple coroutines may await the same future; all
 * are woken when the paired Promise is fulfilled. T must be copyable
 * (results are small messages in this codebase).
 */
template <typename T = void>
class Future
{
  public:
    Future() = default;

    explicit Future(std::shared_ptr<detail::FutureState<T>> st)
        : state_(std::move(st))
    {}

    bool valid() const { return state_ != nullptr; }
    bool ready() const { return state_ && state_->ready; }

    auto
    operator co_await() const
    {
        struct Awaiter : detail::Waiter
        {
            bool await_ready() const { return st->ready; }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                st->waiters.push(*this, h);
            }

            T
            await_resume()
            {
                if (st->error)
                    std::rethrow_exception(st->error);
                if constexpr (!std::is_void_v<T>)
                    return *st->value;
            }

            std::shared_ptr<detail::FutureState<T>> st;
        };
        if (!state_)
            throw SimPanic("await on invalid Future");
        return Awaiter{{}, state_};
    }

  private:
    std::shared_ptr<detail::FutureState<T>> state_;
};

/** Producer side of a Future. */
template <typename T = void>
class Promise
{
  public:
    explicit Promise(Simulation &sim)
        : state_(std::allocate_shared<detail::FutureState<T>>(
              detail::PoolAlloc<detail::FutureState<T>>{}))
    {
        state_->sim = &sim;
    }

    Future<T> future() const { return Future<T>(state_); }

    template <typename U = T>
    void
    setValue(U &&v)
        requires(!std::is_void_v<T>)
    {
        if (state_->ready)
            throw SimPanic("Promise fulfilled twice");
        state_->value.emplace(std::forward<U>(v));
        state_->fire();
    }

    void
    setValue()
        requires std::is_void_v<T>
    {
        if (state_->ready)
            throw SimPanic("Promise fulfilled twice");
        state_->fire();
    }

    void
    setError(std::exception_ptr e)
    {
        if (state_->ready)
            throw SimPanic("Promise fulfilled twice");
        state_->error = std::move(e);
        state_->fire();
    }

    bool fulfilled() const { return state_->ready; }

  private:
    std::shared_ptr<detail::FutureState<T>> state_;
};

/** Counting semaphore with FIFO wakeup. */
class Semaphore
{
  public:
    Semaphore(Simulation &sim, int initial)
        : sim_(&sim), count_(initial)
    {}

    /**
     * acquire()'s awaiter: takes a permit without suspending if one is
     * free, else queues the awaiting coroutine until release() hands
     * it one.
     */
    struct Acquire : detail::Waiter
    {
        bool await_ready() { return s->tryAcquire(); }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            s->waiters_.push(*this, h);
        }

        void await_resume() const noexcept {}

        Semaphore *s;
    };

    [[nodiscard]] Acquire acquire() { return Acquire{{}, this}; }

    bool
    tryAcquire()
    {
        if (count_ > 0) {
            --count_;
            return true;
        }
        return false;
    }

    void
    release()
    {
        // The permit is handed directly to the waiter.
        if (!waiters_.empty())
            waiters_.wakeFront(*sim_);
        else
            ++count_;
    }

    int available() const { return count_; }
    int waiting() const { return static_cast<int>(waiters_.size()); }

  private:
    Simulation *sim_;
    int count_;
    detail::WaitList waiters_;
};

/**
 * Mutual exclusion built on Semaphore. lock() is the semaphore's own
 * awaiter, so taking a free mutex builds no coroutine frame and a
 * contended one queues the awaiting coroutine itself.
 */
class SimMutex
{
  public:
    explicit SimMutex(Simulation &sim) : sem_(sim, 1) {}

    [[nodiscard]] Semaphore::Acquire lock() { return sem_.acquire(); }

    void unlock() { sem_.release(); }

  private:
    Semaphore sem_;
};

/**
 * Condition variable for cooperative coroutines. There is no associated
 * mutex; awaiters must re-check their predicate on wakeup:
 *   while (!pred) co_await cond.wait();
 */
class Condition
{
  public:
    explicit Condition(Simulation &sim) : sim_(&sim) {}

    auto
    wait()
    {
        struct Awaiter : detail::Waiter
        {
            bool await_ready() const noexcept { return false; }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                c->waiters_.push(*this, h);
            }

            void await_resume() const noexcept {}

            Condition *c;
        };
        return Awaiter{{}, this};
    }

    void
    notifyOne()
    {
        if (!waiters_.empty())
            waiters_.wakeFront(*sim_);
    }

    void
    notifyAll()
    {
        while (!waiters_.empty())
            notifyOne();
    }

    int waiting() const { return static_cast<int>(waiters_.size()); }

  private:
    Simulation *sim_;
    detail::WaitList waiters_;
};

/**
 * Unbounded FIFO channel of messages; recv suspends when empty. Used
 * for request queues (file server, separate-process managers).
 */
template <typename T>
class Channel
{
  public:
    explicit Channel(Simulation &sim) : sim_(&sim), cond_(sim) {}

    void
    send(T msg)
    {
        queue_.push_back(std::move(msg));
        cond_.notifyOne();
    }

    Task<T>
    recv()
    {
        while (queue_.empty())
            co_await cond_.wait();
        T msg = std::move(queue_.front());
        queue_.pop_front();
        co_return msg;
    }

    bool empty() const { return queue_.empty(); }
    std::size_t size() const { return queue_.size(); }

  private:
    Simulation *sim_;
    Condition cond_;
    std::deque<T> queue_;
};

/**
 * Run a batch of tasks concurrently; completes when all have finished.
 * Root-task errors are rethrown from the returned task (first error).
 */
Task<> joinAll(Simulation &sim, std::vector<Task<>> tasks);

} // namespace vpp::sim

#endif // VPP_SIM_SYNC_H
