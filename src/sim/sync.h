/**
 * @file
 * Synchronisation primitives for simulated processes.
 *
 * All primitives are cooperative and single-threaded: the simulation is
 * deterministic, so there is no data-race concern, only ordering. Every
 * resumption goes through the event queue at the current timestamp so
 * that wakeup order is FIFO and independent of who calls notify.
 */

#ifndef VPP_SIM_SYNC_H
#define VPP_SIM_SYNC_H

#include <coroutine>
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
 * Waiter bookkeeping shared by both FutureState specialisations. The
 * overwhelmingly common case is a single awaiter, which lives in an
 * inline slot; only a second concurrent awaiter touches the heap.
 * Wakeup order stays FIFO: the inline slot is always the first to
 * have suspended and is always resumed first.
 */
struct FutureWaiters
{
    Simulation *sim;
    bool ready = false;
    std::coroutine_handle<> first = nullptr;
    std::vector<std::coroutine_handle<>> rest;

    void
    add(std::coroutine_handle<> h)
    {
        if (!first)
            first = h;
        else
            rest.push_back(h);
    }

    void
    fire()
    {
        ready = true;
        if (first) {
            sim->scheduleResume(sim->now(), first);
            first = nullptr;
        }
        for (auto h : rest)
            sim->scheduleResume(sim->now(), h);
        rest.clear();
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
        struct Awaiter
        {
            bool await_ready() const { return st->ready; }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                st->add(h);
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
        return Awaiter{state_};
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
    struct Acquire
    {
        bool
        await_ready()
        {
            if (s->count_ > 0) {
                --s->count_;
                return true;
            }
            return false;
        }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            s->waiters_.push_back(h);
        }

        void await_resume() const noexcept {}

        Semaphore *s;
    };

    [[nodiscard]] Acquire acquire() { return Acquire{this}; }

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
        if (!waiters_.empty()) {
            auto h = waiters_.front();
            waiters_.pop_front();
            // The permit is handed directly to the waiter.
            sim_->scheduleResume(sim_->now(), h);
        } else {
            ++count_;
        }
    }

    int available() const { return count_; }
    int waiting() const { return static_cast<int>(waiters_.size()); }

  private:
    Simulation *sim_;
    int count_;
    std::deque<std::coroutine_handle<>> waiters_;
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
        struct Awaiter
        {
            bool await_ready() const noexcept { return false; }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                c->waiters_.push_back(h);
            }

            void await_resume() const noexcept {}

            Condition *c;
        };
        return Awaiter{this};
    }

    void
    notifyOne()
    {
        if (!waiters_.empty()) {
            auto h = waiters_.front();
            waiters_.pop_front();
            sim_->scheduleResume(sim_->now(), h);
        }
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
    std::deque<std::coroutine_handle<>> waiters_;
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
