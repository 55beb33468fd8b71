/**
 * @file
 * Discrete-event simulation engine.
 *
 * The Simulation owns the virtual clock and a time-ordered event queue.
 * Simulated processes are coroutines (Task<T>) spawned onto the engine;
 * they advance time with `co_await sim.delay(d)` and communicate through
 * futures, semaphores and channels (sync.h). Events at the same
 * timestamp run in FIFO order, making every run deterministic.
 *
 * Hot-path design: an event is a POD carrying a coroutine handle (the
 * dominant case — delay()/yield() resumption and all sync.h wakeups), a
 * small trivial callable inline, or a pointer into a slab of fixed-size
 * callback slots with a free list. No case heap-allocates per event in
 * steady state. Events scheduled for the *current* instant bypass the
 * binary heap through a FIFO side queue; because any event scheduled at
 * `now` necessarily carries a larger sequence number than everything
 * already heaped at `now`, draining the heap's now-events first and the
 * FIFO second reproduces the (when, seq) total order bit-for-bit.
 *
 * A future slab callback waits in a timer heap of its own, which the
 * drain merges with the main heap and its register by (when, seq), so
 * a far deadline never sits in the main heap's way. cancel() takes the
 * EventId schedule() returns; the engine skips a cancelled event
 * without running it, counting it or moving the clock (DESIGN.md,
 * "Event cancellation and the allocation-free fault path"). Once
 * cancelled callbacks outnumber the timer heap's live entries, one
 * sweep removes them and rebuilds it; (when, seq) is a strict total
 * order, so a heap's shape, and hence the rebuild, decides nothing.
 */

#ifndef VPP_SIM_SIMULATION_H
#define VPP_SIM_SIMULATION_H

#include <algorithm>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <new>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/task.h"
#include "sim/time.h"

namespace vpp::sim {

/** Thrown when a simulation invariant is violated (an engine bug). */
class SimPanic : public std::logic_error
{
  public:
    using std::logic_error::logic_error;
};

/** Names one schedule()d slab callback for Simulation::cancel(). */
struct EventId
{
    const void *slot = nullptr; ///< slab slot; null for an inline one
    std::uint64_t seq = std::numeric_limits<std::uint64_t>::max();
};

class Simulation
{
  public:
    Simulation() = default;
    ~Simulation();

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    /** Current simulated time. */
    SimTime now() const { return now_; }

    /**
     * Schedule a callback to run at absolute time @p when. If the
     * callable takes a slab slot (it is not small and trivially
     * copyable), the returned id may be passed to cancel() until the
     * callback starts running.
     */
    template <typename F>
    EventId
    schedule(SimTime when, F &&fn)
    {
        using D = std::decay_t<F>;
        if constexpr (sizeof(D) <= kInlinePayload &&
                      alignof(D) <= alignof(std::uint64_t) &&
                      std::is_trivially_copyable_v<D> &&
                      std::is_trivially_destructible_v<D>) {
            if (when < now_)
                throw SimPanic("schedule() into the past");
            // Small trivial callables ride inside the event itself:
            // no slab traffic, nothing to destroy.
            Event ev;
            ev.when = when;
            ev.seq = nextSeq_++;
            ev.kind = Event::kInline;
            ::new (static_cast<void *>(ev.payload)) D(fn);
            ev.invoke = [](void *p) {
                (*std::launder(reinterpret_cast<D *>(p)))();
            };
            pushEvent(ev);
            return EventId{nullptr, ev.seq};
        } else {
            return timer(when, std::forward<F>(fn));
        }
    }

    /**
     * Schedule a callback that cancel() can withdraw: it takes a slab
     * slot whatever its size and, unless it is due now, waits in the
     * timer heap. The id stays valid until the callback starts running.
     */
    template <typename F>
    EventId
    timer(SimTime when, F &&fn)
    {
        if (when < now_)
            throw SimPanic("schedule() into the past");
        Event ev;
        ev.when = when;
        ev.seq = nextSeq_++;
        ev.kind = Event::kSlot;
        ev.slot = makeSlot(std::forward<F>(fn), ev.seq);
        ev.invoke = nullptr;
        pushEvent(ev);
        return EventId{ev.slot, ev.seq};
    }

    /**
     * Cancel a scheduled callback: it never runs, is not counted by
     * eventsRun(), moves no clock and is ignored by nextEventTime().
     * Its callable is destroyed now; no other event's sequence number
     * changes. A stale id (the event ran, is running or was already
     * cancelled, or its slot was recycled) is a no-op. An id without a
     * slot (an inline callback's, or a default one) throws SimPanic.
     * Amortised O(1): the queued event stays as a tombstone until a
     * sweep of the timer heap (see the file comment).
     */
    void
    cancel(EventId id)
    {
        if (!id.slot)
            throw SimPanic("cancel() of an event without a slab slot");
        // Slots live as long as the Simulation; the generation tells
        // whether this one still holds the event.
        auto *s = static_cast<CallbackSlot *>(const_cast<void *>(id.slot));
        if (s->seq != id.seq)
            return;
        releaseSlot(s);
        // Every tombstone is counted as a timer; one left in the FIFO
        // only brings the sweep forward.
        if (2 * ++tombstones_ > timers_.size())
            dropTombstones();
    }

    /**
     * Schedule a coroutine resumption at absolute time @p when. This is
     * the allocation-free fast path used by delay(), yield() and the
     * sync.h primitives.
     */
    void
    scheduleResume(SimTime when, std::coroutine_handle<> h)
    {
        if (when < now_)
            throw SimPanic("schedule() into the past");
        Event ev;
        ev.when = when;
        ev.seq = nextSeq_++;
        ev.kind = Event::kCoroutine;
        ev.coro = h.address();
        pushEvent(ev);
    }

    /** Awaitable that suspends the coroutine for @p d simulated time. */
    struct DelayAwaiter
    {
        bool await_ready() const noexcept { return dur <= 0; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            sim->scheduleResume(sim->now_ + dur, h);
        }

        void await_resume() const noexcept {}

        Simulation *sim;
        Duration dur;
    };

    DelayAwaiter delay(Duration d) { return DelayAwaiter{this, d}; }

    /**
     * Awaitable that reschedules the coroutine at the current time,
     * behind everything already queued for this instant. Used to yield
     * to same-timestamp peers deterministically.
     */
    auto yield() { return YieldAwaiter{this}; }

    /**
     * Start a coroutine as a detached root process. It begins running
     * immediately (until its first suspension); errors escaping it are
     * recorded and rethrown from run().
     */
    void spawn(Task<> t);

    /** Run until the event queue is empty. Returns final time. */
    SimTime run();

    /**
     * Run until simulated time reaches @p deadline (events at exactly
     * @p deadline are executed) or the queue empties, whichever first.
     */
    SimTime runUntil(SimTime deadline);

    /** nextEventTime() result when no event is pending. */
    static constexpr SimTime kNoEvent =
        std::numeric_limits<SimTime>::max();

    /**
     * Timestamp of the earliest pending event, or kNoEvent when the
     * queue is empty. Used by the sharded engine to compute the
     * global epoch horizon; tombstones at the front are dropped
     * first, so a cancelled event never holds the horizon back.
     */
    SimTime nextEventTime();

    /**
     * Execute every event with `when < horizon` (strictly), including
     * events those events schedule inside the window, then stop. The
     * clock is left at the last executed event, never forced forward.
     * This is one shard's share of a conservative epoch window: the
     * sharded engine proves that no cross-shard event can arrive
     * before @p horizon, making everything strictly before it safe.
     */
    SimTime
    drainBefore(SimTime horizon)
    {
        // Integer timestamps make "strictly before horizon" the same
        // set as "at or before horizon - 1".
        return drainUntil(horizon - 1);
    }

    /** Number of spawned root tasks that have not yet finished. */
    int liveTasks() const { return liveTasks_; }

    /** Number of events executed so far. */
    std::uint64_t eventsRun() const { return eventsRun_; }

    struct YieldAwaiter
    {
        bool await_ready() const noexcept { return false; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            sim->scheduleResume(sim->now_, h);
        }

        void await_resume() const noexcept {}

        Simulation *sim;
    };

  private:
    static constexpr std::uint64_t kNoSeq =
        std::numeric_limits<std::uint64_t>::max();
    static constexpr std::size_t kInlinePayload = 16;

    struct CallbackSlot;

    /**
     * POD event record, tagged by `kind`: a coroutine resumption (the
     * dominant case), a small trivially-copyable callable carried
     * inline in `payload`, or a slot of the callback slab for
     * everything else. (when, seq) is the total execution order.
     */
    struct Event
    {
        enum Kind : std::uint32_t { kCoroutine, kInline, kSlot };

        SimTime when;
        std::uint64_t seq;
        Kind kind;
        void (*invoke)(void *); ///< kInline: payload trampoline
        union {
            void *coro;         ///< kCoroutine: handle address
            CallbackSlot *slot; ///< kSlot: its slab slot
            alignas(std::uint64_t)
                unsigned char payload[kInlinePayload]; ///< kInline
        };
    };

    /**
     * The same-instant FIFO: a power-of-two ring in frame-pool
     * storage that grows by doubling and never shrinks, so once it
     * has held its peak, queueing an event allocates nothing.
     */
    class EventRing
    {
      public:
        bool empty() const { return size_ == 0; }
        const Event &front() const { return buf_[head_]; }

        void
        pop_front()
        {
            head_ = (head_ + 1) & mask_;
            --size_;
        }

        void
        push_back(const Event &ev)
        {
            if (size_ == buf_.size())
                grow();
            buf_[(head_ + size_) & mask_] = ev;
            ++size_;
        }

      private:
        void grow();

        PoolVector<Event> buf_;
        std::size_t mask_ = 0; ///< buf_.size() - 1, once allocated
        std::size_t head_ = 0;
        std::size_t size_ = 0;
    };

    struct EventLater
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /**
     * One slab slot: inline storage for a small callable (or a
     * std::function fallback for oversized ones) plus its manually
     * managed vtable. Slots live in a deque so their addresses are
     * stable while the slab grows (events and ids hold them by
     * pointer), and are recycled via `nextFree`. The generation `seq`
     * is the pending event's sequence number, else kNoSeq.
     */
    struct CallbackSlot
    {
        static constexpr std::size_t kInline = 48;

        alignas(std::max_align_t) unsigned char storage[kInline];
        void (*invoke)(void *) = nullptr;
        void (*destroy)(void *) = nullptr;
        std::uint64_t seq = kNoSeq;
        CallbackSlot *nextFree = nullptr;
    };

    template <typename F>
    CallbackSlot *
    makeSlot(F &&fn, std::uint64_t seq)
    {
        using D = std::decay_t<F>;
        CallbackSlot *slot = freeSlots_;
        if (slot)
            freeSlots_ = slot->nextFree;
        else
            slot = &slots_.emplace_back();
        CallbackSlot &s = *slot;
        try {
            if constexpr (sizeof(D) <= CallbackSlot::kInline &&
                          alignof(D) <= alignof(std::max_align_t)) {
                ::new (static_cast<void *>(s.storage))
                    D(std::forward<F>(fn));
                s.invoke = [](void *p) {
                    (*std::launder(reinterpret_cast<D *>(p)))();
                };
                s.destroy = [](void *p) {
                    std::launder(reinterpret_cast<D *>(p))->~D();
                };
            } else {
                using Big = std::function<void()>;
                ::new (static_cast<void *>(s.storage))
                    Big(std::forward<F>(fn));
                s.invoke = [](void *p) {
                    (*std::launder(reinterpret_cast<Big *>(p)))();
                };
                s.destroy = [](void *p) {
                    std::launder(reinterpret_cast<Big *>(p))->~Big();
                };
            }
        } catch (...) {
            s.nextFree = freeSlots_;
            freeSlots_ = slot;
            throw;
        }
        s.seq = seq;
        return slot;
    }

    /** Destroy a slot's callable and recycle the slot. */
    void
    releaseSlot(CallbackSlot *s)
    {
        s->seq = kNoSeq;
        s->destroy(s->storage);
        s->nextFree = freeSlots_;
        freeSlots_ = s;
    }

    /** Whether @p ev was cancelled: its slot no longer holds it. */
    static bool
    cancelled(const Event &ev)
    {
        return ev.kind == Event::kSlot && ev.slot->seq != ev.seq;
    }

    static bool
    earlier(const Event &a, const Event &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    void
    pushEvent(const Event &ev)
    {
        // Same-instant events take the O(1) FIFO; their seq is larger
        // than anything already heaped at now_, so FIFO == seq order.
        if (ev.when == now_) {
            nowQueue_.push_back(ev);
            return;
        }
        // Future slab callbacks, the only cancellable events, wait in
        // the timer heap, so the main heap holds no tombstone and a far
        // deadline never takes the register.
        if (ev.kind == Event::kSlot) {
            timers_.push_back(ev);
            std::push_heap(timers_.begin(), timers_.end(), EventLater{});
            return;
        }
        // The soonest future event lives in a register, not the heap:
        // the schedule-one/run-one pattern and any wakeup that becomes
        // the next event skip the heap entirely.
        if (!nextValid_) {
            next_ = ev;
            nextValid_ = true;
        } else if (earlier(ev, next_)) {
            pushHeap(next_);
            next_ = ev;
        } else {
            pushHeap(ev);
        }
    }

    void
    pushHeap(const Event &ev)
    {
        heap_.push_back(ev);
        std::push_heap(heap_.begin(), heap_.end(), EventLater{});
    }

    /** Refill next_ from the heap once it has been consumed. */
    void
    popNext()
    {
        if (!heap_.empty()) {
            next_ = heap_.front();
            std::pop_heap(heap_.begin(), heap_.end(), EventLater{});
            heap_.pop_back();
        } else {
            nextValid_ = false;
        }
    }

    /**
     * The earliest future event: the register or the timer heap's top,
     * whichever comes first by (when, seq); null when neither holds
     * one. Sets @p timer when it is the timer heap's.
     */
    const Event *
    peekFuture(bool &timer) const
    {
        timer = !timers_.empty() &&
                (!nextValid_ || earlier(timers_.front(), next_));
        if (timer)
            return &timers_.front();
        return nextValid_ ? &next_ : nullptr;
    }

    /** Consume the event peekFuture() returned. */
    void
    popFuture(bool timer)
    {
        if (timer) {
            std::pop_heap(timers_.begin(), timers_.end(), EventLater{});
            timers_.pop_back();
        } else {
            popNext();
        }
    }

    /** Remove every tombstone from the timer heap and rebuild it. */
    void dropTombstones();

    void fireEvent(Event &ev);

    SimTime drainUntil(SimTime deadline);

    /**
     * Node of the circular list of live root frames, held inside each
     * frame; `roots_` is the sentinel.
     */
    struct RootLink
    {
        RootLink() = default;
        RootLink(RootLink &head, void *f)
            : prev(head.prev), next(&head), frame(f)
        {
            prev->next = next->prev = this;
        }
        ~RootLink()
        {
            prev->next = next;
            next->prev = prev;
        }
        RootLink(const RootLink &) = delete;
        RootLink &operator=(const RootLink &) = delete;

        RootLink *prev = this;
        RootLink *next = this;
        void *frame = nullptr;
    };

    friend struct RootTracker;

    void
    rethrowPending()
    {
        if (!errors_.empty()) [[unlikely]]
            rethrowPendingSlow();
    }

    void rethrowPendingSlow();

    SimTime now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t eventsRun_ = 0;
    int liveTasks_ = 0;
    bool nextValid_ = false;
    Event next_; ///< minimum of the other future events when nextValid_
    std::vector<Event> heap_;    ///< the rest of them, a heap
    std::vector<Event> timers_;  ///< future slab callbacks, a heap
    std::size_t tombstones_ = 0; ///< cancels since the last sweep
    EventRing nowQueue_;
    std::deque<CallbackSlot> slots_;
    CallbackSlot *freeSlots_ = nullptr;
    std::vector<std::exception_ptr> errors_;
    /// Detached root frames still live; unfinished ones (root tasks
    /// blocked forever on a future/lock) are destroyed by ~Simulation.
    RootLink roots_;
};

} // namespace vpp::sim

#endif // VPP_SIM_SIMULATION_H
