#include "sim/simulation.h"

#include <utility>

namespace vpp::sim {

/** Private-access shim for runRoot's root-frame bookkeeping. */
struct RootTracker
{
    using Link = Simulation::RootLink;

    static Link &head(Simulation &s) { return s.roots_; }
};

namespace {

/**
 * Self-destructing coroutine used to own a detached root task. Its frame
 * is released automatically when the wrapped task finishes; frames that
 * never finish (a process blocked forever on a future or lock) stay
 * registered with the Simulation, which destroys them on teardown.
 */
struct Detached
{
    struct promise_type : detail::PooledFrame
    {
        Detached get_return_object() { return {}; }
        std::suspend_never initial_suspend() noexcept { return {}; }
        std::suspend_never final_suspend() noexcept { return {}; }
        void return_void() noexcept {}
        void unhandled_exception() noexcept { std::terminate(); }
    };
};

/** Awaitable that hands a coroutine its own handle without suspending. */
struct SelfHandle
{
    std::coroutine_handle<> h;
    bool await_ready() noexcept { return false; }

    bool
    await_suspend(std::coroutine_handle<> me) noexcept
    {
        h = me;
        return false;
    }

    std::coroutine_handle<> await_resume() noexcept { return h; }
};

Detached
runRoot(Simulation *sim, Task<> inner, int *live,
        std::vector<std::exception_ptr> *errors)
{
    // Linked for the frame's lifetime, which ~Simulation may cut short.
    RootTracker::Link root(RootTracker::head(*sim),
                           (co_await SelfHandle{}).address());
    ++*live;
    try {
        co_await std::move(inner);
    } catch (...) {
        errors->push_back(std::current_exception());
    }
    --*live;
}

} // namespace

Simulation::~Simulation()
{
    // Destroy root frames that never finished (processes still blocked
    // on a future, lock or channel when the run ended). Each root frame
    // owns its await chain, so destruction cascades to every suspended
    // child. Locals' destructors may schedule wakeups; those events are
    // swept with the queues below, never fired. A frame unlinks
    // itself as it is destroyed.
    while (roots_.next != &roots_)
        std::coroutine_handle<>::from_address(roots_.next->frame)
            .destroy();

    // Destroy any slab-held callables still queued (a tombstone's
    // slot was released when it was cancelled). Queued coroutine
    // resumptions are not destroyed here because their frames are
    // owned by the tasks that spawned them.
    auto drop = [this](const Event &ev) {
        if (ev.kind == Event::kSlot && ev.slot->seq == ev.seq)
            releaseSlot(ev.slot);
    };
    for (; !nowQueue_.empty(); nowQueue_.pop_front())
        drop(nowQueue_.front());
    while (!timers_.empty()) {
        const Event ev = timers_.back();
        timers_.pop_back();
        drop(ev);
    }
}

void
Simulation::spawn(Task<> t)
{
    runRoot(this, std::move(t), &liveTasks_, &errors_);
}

void
Simulation::rethrowPendingSlow()
{
    auto e = errors_.front();
    errors_.clear();
    std::rethrow_exception(e);
}

void
Simulation::fireEvent(Event &ev)
{
    switch (ev.kind) {
      case Event::kCoroutine:
        std::coroutine_handle<>::from_address(ev.coro).resume();
        return;
      case Event::kInline:
        // `ev` is the caller's stack copy, so the payload stays valid
        // however the queues mutate during the call.
        ev.invoke(ev.payload);
        return;
      case Event::kSlot: {
        // The callback is destroyed and its slot recycled even if it
        // throws; slot addresses are stable while the callback runs
        // (the slab is a deque), so it may freely schedule further
        // events. A running callback can no longer be cancelled.
        struct SlotGuard
        {
            ~SlotGuard() { sim->releaseSlot(slot); }
            Simulation *sim;
            CallbackSlot *slot;
        } guard{this, ev.slot};
        ev.slot->seq = kNoSeq;
        ev.slot->invoke(ev.slot->storage);
        return;
      }
    }
}

void
Simulation::EventRing::grow()
{
    PoolVector<Event> bigger(std::max<std::size_t>(16, 2 * buf_.size()));
    for (std::size_t i = 0; i < size_; ++i)
        bigger[i] = buf_[(head_ + i) & mask_];
    buf_.swap(bigger);
    mask_ = buf_.size() - 1;
    head_ = 0;
}

void
Simulation::dropTombstones()
{
    std::erase_if(timers_, cancelled);
    std::make_heap(timers_.begin(), timers_.end(), EventLater{});
    tombstones_ = 0;
}

SimTime
Simulation::drainUntil(SimTime deadline)
{
    rethrowPending();
    for (;;) {
        Event ev;
        // A future event at now_ was queued before any FIFO entry, so
        // it runs first; otherwise the FIFO drains before time moves.
        bool timer;
        const Event *fut = peekFuture(timer);
        if (fut && (fut->when == now_ ||
                    (nowQueue_.empty() && fut->when <= deadline))) {
            ev = *fut;
            popFuture(timer);
        } else if (!nowQueue_.empty() && now_ <= deadline) {
            ev = nowQueue_.front();
            nowQueue_.pop_front();
        } else {
            break;
        }
        if (cancelled(ev)) [[unlikely]]
            continue;
        now_ = ev.when;
        ++eventsRun_;
        fireEvent(ev);
        rethrowPending();
    }
    return now_;
}

SimTime
Simulation::nextEventTime()
{
    // Drop cancelled events from the front, in execution order.
    for (;;) {
        bool timer;
        const Event *fut = peekFuture(timer);
        if (fut && (nowQueue_.empty() || fut->when == now_)) {
            if (!cancelled(*fut))
                return fut->when;
            popFuture(timer);
        } else if (!nowQueue_.empty()) {
            if (!cancelled(nowQueue_.front()))
                return now_;
            nowQueue_.pop_front();
        } else {
            return kNoEvent;
        }
    }
}

SimTime
Simulation::run()
{
    return drainUntil(std::numeric_limits<SimTime>::max());
}

SimTime
Simulation::runUntil(SimTime deadline)
{
    drainUntil(deadline);
    if (now_ < deadline)
        now_ = deadline;
    return now_;
}

} // namespace vpp::sim
