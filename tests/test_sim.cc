/**
 * @file
 * Unit tests for the discrete-event engine, coroutine tasks and
 * synchronisation primitives.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <compare>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "sim/mem_accounting.h"
#include "sim/random.h"
#include "sim/resource.h"
#include "sim/simulation.h"
#include "sim/stats.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "sim/time.h"

namespace vpp::sim {
namespace {

/** A movable, non-trivial result, as a manager's slot list is. */
using SlotRunLike = std::vector<int>;

TEST(Time, Conversions)
{
    EXPECT_EQ(usec(1), 1000);
    EXPECT_EQ(msec(1), 1000000);
    EXPECT_EQ(sec(1), 1000000000);
    EXPECT_DOUBLE_EQ(toUsec(usec(107)), 107.0);
    EXPECT_DOUBLE_EQ(toMsec(msec(3.5)), 3.5);
    EXPECT_DOUBLE_EQ(toSec(sec(12)), 12.0);
}

TEST(Simulation, EventsRunInTimeOrder)
{
    Simulation s;
    std::vector<int> order;
    s.schedule(30, [&] { order.push_back(3); });
    s.schedule(10, [&] { order.push_back(1); });
    s.schedule(20, [&] { order.push_back(2); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(s.now(), 30);
    EXPECT_EQ(s.eventsRun(), 3u);
}

TEST(Simulation, SameTimestampIsFifo)
{
    Simulation s;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        s.schedule(5, [&, i] { order.push_back(i); });
    s.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(Simulation, ScheduleIntoPastThrows)
{
    Simulation s;
    s.schedule(10, [&s] {
        EXPECT_THROW(s.schedule(5, [] {}), SimPanic);
    });
    s.run();
}

TEST(Simulation, RunUntilStopsAtDeadline)
{
    Simulation s;
    int ran = 0;
    s.schedule(10, [&] { ++ran; });
    s.schedule(100, [&] { ++ran; });
    s.runUntil(50);
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(s.now(), 50);
    s.run();
    EXPECT_EQ(ran, 2);
}

/**
 * A callback too big to ride inline in its event, so it takes a slab
 * slot: only slab callbacks can be cancelled.
 */
struct SlabCallback
{
    std::function<void()> fn;
    void operator()() const { fn(); }
};

TEST(SimulationCancel, CancelledCallbackNeverRuns)
{
    Simulation s;
    bool ran = false;
    auto token = std::make_shared<int>(0);
    EventId id = s.schedule(10, [&ran, token] { ran = true; });
    ASSERT_NE(id.slot, nullptr);
    EXPECT_EQ(token.use_count(), 2);
    s.cancel(id);
    // The callable (and what it captured) is destroyed at cancel time.
    EXPECT_EQ(token.use_count(), 1);
    s.run();
    EXPECT_FALSE(ran);
}

TEST(SimulationCancel, CancelledEventIsNotCounted)
{
    Simulation s;
    std::vector<int> order;
    s.schedule(10, [&] { order.push_back(1); });
    EventId a = s.schedule(20, SlabCallback{[&] { order.push_back(2); }});
    EventId b = s.schedule(25, SlabCallback{[&] { order.push_back(3); }});
    s.schedule(30, [&] { order.push_back(4); });
    s.cancel(a);
    s.cancel(b);
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 4}));
    EXPECT_EQ(s.eventsRun(), 2u);
}

TEST(SimulationCancel, CancelledEventMovesNoClock)
{
    Simulation s;
    s.schedule(10, [] {});
    s.cancel(s.schedule(120, SlabCallback{[] {}}));
    s.cancel(s.schedule(130, SlabCallback{[] {}}));
    EXPECT_EQ(s.run(), 10);
    EXPECT_EQ(s.now(), 10);

    // nextEventTime() skips cancelled events, heaped or same-instant.
    Simulation t;
    EventId first = t.schedule(5, SlabCallback{[] {}});
    EventId second = t.schedule(6, SlabCallback{[] {}});
    t.schedule(40, [] {});
    t.cancel(first);
    EXPECT_EQ(t.nextEventTime(), 6);
    t.cancel(second);
    EXPECT_EQ(t.nextEventTime(), 40);
    t.schedule(20, [&t] {
        t.cancel(t.schedule(20, SlabCallback{[] {}}));
        t.cancel(t.schedule(20, SlabCallback{[] {}}));
        EXPECT_EQ(t.nextEventTime(), 40);
    });
    t.run();
    EXPECT_EQ(t.nextEventTime(), Simulation::kNoEvent);
    EXPECT_EQ(t.eventsRun(), 2u);
}

TEST(SimulationCancel, SameInstantPeersKeepTheirOrder)
{
    Simulation s;
    std::vector<int> order;
    std::vector<EventId> ids;
    for (int i = 0; i < 6; ++i) {
        if (i % 2)
            s.schedule(5, [&, i] { order.push_back(i); });
        ids.push_back(
            s.schedule(5, SlabCallback{[&, i] { order.push_back(10 + i); }}));
    }
    s.cancel(ids[1]);
    s.cancel(ids[4]);
    // Same-instant events scheduled from a callback take the FIFO
    // side queue; cancelling there keeps the others in order too.
    s.schedule(7, [&] {
        s.schedule(7, [&] { order.push_back(30); });
        EventId a = s.schedule(7, SlabCallback{[&] { order.push_back(31); }});
        s.schedule(7, SlabCallback{[&] { order.push_back(32); }});
        EventId b = s.schedule(7, SlabCallback{[&] { order.push_back(33); }});
        s.schedule(7, [&] { order.push_back(34); });
        s.cancel(a);
        s.cancel(b);
    });
    s.spawn([](Simulation &sim, std::vector<int> *ord) -> Task<> {
        co_await sim.delay(7);
        co_await sim.yield();
        ord->push_back(40);
    }(s, &order));
    s.run();
    EXPECT_EQ(order, (std::vector<int>{10, 1, 12, 3, 13, 5, 15, 30, 32,
                                       34, 40}));
}

TEST(SimulationCancel, StaleIdsAreNoOps)
{
    Simulation s;
    int a = 0;
    int b = 0;
    EventId first = s.schedule(10, SlabCallback{[&] { ++a; }});
    s.run();
    EXPECT_EQ(a, 1);
    s.cancel(first); // after it fired

    // The next slab callback recycles the slot; the old id must not
    // cancel its new occupant.
    EventId second = s.schedule(20, SlabCallback{[&] { ++b; }});
    ASSERT_EQ(second.slot, first.slot);
    s.cancel(first);
    s.run();
    EXPECT_EQ(b, 1);

    // Cancelling twice, or from inside the running callback itself,
    // changes nothing further; a cancelled slot's next occupant runs.
    EventId twice = s.schedule(30, SlabCallback{[&] { ++a; }});
    s.cancel(twice);
    s.cancel(twice);
    EventId self;
    self = s.schedule(40, SlabCallback{[&] {
                          s.cancel(self);
                          ++b;
                      }});
    EXPECT_EQ(self.slot, twice.slot);
    s.schedule(50, [&] { ++b; });
    s.run();
    EXPECT_EQ(a, 1);
    EXPECT_EQ(b, 3);
    EXPECT_EQ(s.now(), 50);
}

TEST(SimulationCancel, IdWithoutSlotPanics)
{
    // A small trivial callable rides inline in its event and has no
    // slot to tombstone: cancelling it is a caller bug, not a no-op.
    Simulation s;
    bool ran = false;
    EventId inl = s.schedule(10, [&ran] { ran = true; });
    EXPECT_EQ(inl.slot, nullptr);
    EXPECT_THROW(s.cancel(inl), SimPanic);
    EXPECT_THROW(s.cancel(EventId{}), SimPanic);
    s.run();
    EXPECT_TRUE(ran);
}

TEST(SimulationCancel, DestroyWithCancelledEventsQueued)
{
    auto token = std::make_shared<int>(0);
    {
        Simulation s;
        s.schedule(0, [] {}); // takes the same-instant side queue
        EventId now_id = s.schedule(0, [token] {});
        EventId heaped = s.schedule(50, [token] {});
        s.schedule(60, [token] {});
        s.cancel(now_id);
        s.cancel(heaped);
        s.cancel(s.schedule(70, SlabCallback{[] {}}));
        // A recycled slot is held by a live event behind a tombstone.
        s.schedule(80, [token] {});
        EXPECT_EQ(token.use_count(), 3);
    }
    EXPECT_EQ(token.use_count(), 1);
}

/** An event's place in the (when, seq) total order. */
struct RefEvent
{
    SimTime when;
    std::uint64_t seq;

    auto operator<=>(const RefEvent &) const = default;
};

/**
 * Random schedule/cancel churn checked against a reference model. The
 * model numbers events in the order the engine claims sequence
 * numbers, so the engine must run exactly the events never cancelled,
 * in ascending (when, seq) order, however its queues hold them.
 */
class CancelChurn
{
  public:
    CancelChurn(std::uint64_t seed, std::uint64_t budget)
        : rng_(seed), budget_(budget)
    {}

    void
    run()
    {
        for (int i = 0; i < 6; ++i)
            sim_.spawn(actor(this));
        // Between drains, step the engine in random windows, query
        // its horizon, and schedule or cancel from outside any event.
        while (scheduled_ < budget_) {
            const SimTime now = sim_.now();
            switch (rng_.below(4)) {
              case 0: {
                const SimTime deadline = now + rng_.between(0, 200);
                sim_.runUntil(deadline);
                EXPECT_EQ(sim_.now(), deadline);
                EXPECT_GT(nextPending(), deadline);
                break;
              }
              case 1: {
                const SimTime horizon = now + rng_.between(0, 200);
                sim_.drainBefore(horizon);
                EXPECT_GE(nextPending(), horizon);
                break;
              }
              case 2:
                EXPECT_EQ(sim_.nextEventTime(), nextPending());
                break;
              default:
                act();
                break;
            }
            EXPECT_EQ(sim_.eventsRun(), order_.size());
        }
        sim_.run();
        EXPECT_EQ(sim_.nextEventTime(), Simulation::kNoEvent);
        EXPECT_EQ(sim_.liveTasks(), 0);
    }

    /** Check the run against the sorted reference; returns cancels. */
    std::uint64_t
    verify() const
    {
        std::vector<RefEvent> expected;
        for (const RefEvent &e : scheduledKeys_)
            if (!cancelledSeqs_.contains(e.seq))
                expected.push_back(e);
        std::sort(expected.begin(), expected.end());
        EXPECT_TRUE(pending_.empty());
        EXPECT_EQ(sim_.eventsRun(), expected.size());
        EXPECT_EQ(order_.size(), expected.size());
        const auto [ran, want] = std::mismatch(
            order_.begin(), order_.end(), expected.begin(), expected.end());
        if (ran != order_.end() || want != expected.end()) {
            ADD_FAILURE() << "execution order leaves the reference at event "
                          << (ran - order_.begin());
        }
        // Every slab callable, run or cancelled, has been destroyed.
        EXPECT_EQ(token_.use_count(), 1);
        return cancelledSeqs_.size();
    }

  private:
    static Task<>
    actor(CancelChurn *h)
    {
        while (h->scheduled_ < h->budget_) {
            const RefEvent key = h->expect(
                h->rng_.chance(0.3) ? 0 : h->rng_.between(1, 40), {});
            if (key.when == h->sim_.now())
                co_await h->sim_.yield();
            else
                co_await h->sim_.delay(key.when - h->sim_.now());
            h->onRun(key.seq);
            h->act();
        }
    }

    SimTime
    nextPending() const
    {
        return pending_.empty() ? Simulation::kNoEvent
                                : pending_.begin()->first.when;
    }

    /** Claim the next sequence number for an event @p after from now. */
    RefEvent
    expect(Duration after, EventId id)
    {
        const RefEvent key{sim_.now() + after, seq_++};
        ++scheduled_;
        scheduledKeys_.push_back(key);
        pending_.emplace(key, id);
        return key;
    }

    void
    onRun(std::uint64_t seq)
    {
        const RefEvent key{sim_.now(), seq};
        order_.push_back(key);
        pending_.erase(key);
    }

    /**
     * What every event does after it runs: keep about 48 events
     * pending (same-instant, near and far, inline and slab), cancel
     * slab events at random and the soonest one, and now and then
     * query the horizon from inside the event.
     */
    void
    act()
    {
        if (scheduled_ < budget_) {
            const std::uint64_t n = rng_.below(pending_.size() < 48 ? 4 : 2);
            for (std::uint64_t i = 0; i < n; ++i)
                scheduleCallback();
        }
        if (rng_.chance(0.4))
            cancelRandom();
        if (rng_.chance(0.15))
            cancelSoonest();
        if (rng_.chance(0.05)) {
            EXPECT_EQ(sim_.nextEventTime(), nextPending());
        }
    }

    void
    scheduleCallback()
    {
        Duration after = 0;
        switch (rng_.below(4)) {
          case 0: break; // same instant: the FIFO side queue
          case 1: after = rng_.between(1, 50); break;
          case 2: after = rng_.between(1, 5); break;
          default: after = rng_.between(500, 3000); break; // a deadline
        }
        const SimTime when = sim_.now() + after;
        const std::uint64_t seq = seq_;
        if (rng_.chance(0.5)) {
            CancelChurn *h = this;
            EventId id = sim_.schedule(when, [h, seq] {
                h->onRun(seq);
                h->act();
            });
            EXPECT_EQ(id.slot, nullptr);
            expect(after, {});
        } else {
            EventId id =
                sim_.schedule(when, [h = this, seq, token = token_] {
                    h->onRun(seq);
                    h->act();
                });
            EXPECT_NE(id.slot, nullptr);
            expect(after, id);
            slabIds_.push_back({RefEvent{when, seq}, id});
        }
    }

    void
    cancel(const RefEvent &key, EventId id)
    {
        sim_.cancel(id);
        // An id whose event already ran is stale: cancelling it must
        // not touch a later occupant of its slot.
        if (pending_.erase(key))
            cancelledSeqs_.insert(key.seq);
    }

    void
    cancelRandom()
    {
        if (slabIds_.empty())
            return;
        const std::uint64_t i = rng_.below(slabIds_.size());
        const auto [key, id] = slabIds_[i];
        slabIds_[i] = slabIds_.back();
        slabIds_.pop_back();
        cancel(key, id);
    }

    /** Cancel the next event to run if it is a slab callback: it sits
     *  at the top of the timer heap or at the head of the FIFO. */
    void
    cancelSoonest()
    {
        if (!pending_.empty() && pending_.begin()->second.slot) {
            const auto [key, id] = *pending_.begin();
            cancel(key, id);
        }
    }

    Simulation sim_;
    Random rng_;
    std::uint64_t budget_;
    std::uint64_t scheduled_ = 0;
    std::uint64_t seq_ = 0;
    std::map<RefEvent, EventId> pending_; ///< not yet run or cancelled
    std::vector<std::pair<RefEvent, EventId>> slabIds_;
    std::vector<RefEvent> scheduledKeys_;
    std::set<std::uint64_t> cancelledSeqs_;
    std::vector<RefEvent> order_;
    std::shared_ptr<int> token_ = std::make_shared<int>(0);
};

TEST(SimulationCancel, RandomCancelsKeepReferenceOrder)
{
    // Each seed cancels about 3,100 of 20,000 events, in the
    // same-instant FIFO and in the timer heap, which the drain merges
    // with the main heap and its register; enough cancels to sweep
    // the timer heap's tombstones many times.
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE(seed);
        CancelChurn churn(seed, 20000);
        churn.run();
        EXPECT_GT(churn.verify(), 2000u);
    }
}

TEST(Task, DelayAdvancesClock)
{
    Simulation s;
    SimTime done_at = -1;
    s.spawn([](Simulation &sim, SimTime *at) -> Task<> {
        co_await sim.delay(usec(5));
        co_await sim.delay(usec(7));
        *at = sim.now();
    }(s, &done_at));
    s.run();
    EXPECT_EQ(done_at, usec(12));
}

TEST(Task, NestedTasksReturnValues)
{
    Simulation s;
    int result = 0;
    s.spawn([](Simulation &sim, int *out) -> Task<> {
        auto inner = [](Simulation &sm, int x) -> Task<int> {
            co_await sm.delay(10);
            co_return x * 2;
        };
        int a = co_await inner(sim, 21);
        int b = co_await inner(sim, a);
        *out = b;
    }(s, &result));
    s.run();
    EXPECT_EQ(result, 84);
}

TEST(Task, ExceptionPropagatesThroughAwait)
{
    Simulation s;
    bool caught = false;
    s.spawn([](Simulation &sim, bool *c) -> Task<> {
        auto boom = [](Simulation &sm) -> Task<> {
            co_await sm.delay(1);
            throw std::runtime_error("boom");
        };
        try {
            co_await boom(sim);
        } catch (const std::runtime_error &) {
            *c = true;
        }
    }(s, &caught));
    s.run();
    EXPECT_TRUE(caught);
}

TEST(Task, UncaughtRootErrorRethrownFromRun)
{
    Simulation s;
    s.spawn([](Simulation &sim) -> Task<> {
        co_await sim.delay(1);
        throw std::runtime_error("unhandled");
    }(s));
    EXPECT_THROW(s.run(), std::runtime_error);
}

TEST(Task, LiveTaskCounting)
{
    Simulation s;
    EXPECT_EQ(s.liveTasks(), 0);
    s.spawn([](Simulation &sim) -> Task<> {
        co_await sim.delay(100);
    }(s));
    EXPECT_EQ(s.liveTasks(), 1);
    s.run();
    EXPECT_EQ(s.liveTasks(), 0);
}

TEST(Task, ReadyValueBuildsNoFrame)
{
    // A ready task hands its value to the awaiter with no coroutine
    // frame and no event; only the awaiting coroutine's own frame and
    // its root come from the frame pool.
    Simulation s;
    int got = 0;
    SlotRunLike run;
    const std::uint64_t b0 = threadFrameBlocks();
    std::uint64_t inside = 0;
    s.spawn([](int *out, SlotRunLike *r, std::uint64_t *blocks) -> Task<> {
        const std::uint64_t before = threadFrameBlocks();
        *out = co_await Task<int>::ready(42);
        *r = co_await Task<SlotRunLike>::ready(SlotRunLike(3, 7));
        *blocks = threadFrameBlocks() - before;
    }(&got, &run, &inside));
    EXPECT_EQ(got, 42);
    EXPECT_EQ(run, SlotRunLike(3, 7));
    EXPECT_EQ(inside, 0u);
    // The spawned coroutine and its root.
    EXPECT_EQ(threadFrameBlocks() - b0, 2u);
    EXPECT_EQ(s.liveTasks(), 0);
    s.run();
    EXPECT_EQ(s.eventsRun(), 0u);
}

TEST(Task, EmptyTaskCompletesAtOnce)
{
    // A default Task<> has no frame: awaiting it neither suspends nor
    // schedules anything, moved or not.
    Simulation s;
    int steps = 0;
    s.spawn([](Simulation &sim, int *n) -> Task<> {
        co_await Task<>();
        ++*n;
        Task<> empty;
        Task<> moved = std::move(empty);
        co_await std::move(moved);
        ++*n;
        co_await sim.delay(3);
        ++*n;
    }(s, &steps));
    EXPECT_EQ(steps, 2);
    s.run();
    EXPECT_EQ(steps, 3);
    EXPECT_EQ(s.eventsRun(), 1u);
    EXPECT_EQ(s.now(), 3);
    static_assert(sizeof(Task<>) == sizeof(void *));
}

TEST(Future, FulfilBeforeAwait)
{
    Simulation s;
    Promise<int> p(s);
    p.setValue(7);
    int got = 0;
    s.spawn([](Future<int> f, int *out) -> Task<> {
        *out = co_await f;
    }(p.future(), &got));
    s.run();
    EXPECT_EQ(got, 7);
}

TEST(Future, FulfilAfterAwaitWakesAllWaiters)
{
    Simulation s;
    Promise<int> p(s);
    int sum = 0;
    for (int i = 0; i < 3; ++i) {
        s.spawn([](Future<int> f, int *acc) -> Task<> {
            *acc += co_await f;
        }(p.future(), &sum));
    }
    s.schedule(50, [&] { p.setValue(10); });
    s.run();
    EXPECT_EQ(sum, 30);
}

TEST(Future, DoubleFulfilThrows)
{
    Simulation s;
    Promise<void> p(s);
    p.setValue();
    EXPECT_THROW(p.setValue(), SimPanic);
}

TEST(Future, ErrorPropagates)
{
    Simulation s;
    Promise<int> p(s);
    bool caught = false;
    s.spawn([](Future<int> f, bool *c) -> Task<> {
        try {
            co_await f;
        } catch (const std::runtime_error &) {
            *c = true;
        }
    }(p.future(), &caught));
    s.schedule(1, [&] {
        p.setError(std::make_exception_ptr(std::runtime_error("x")));
    });
    s.run();
    EXPECT_TRUE(caught);
}

TEST(Semaphore, LimitsConcurrency)
{
    Simulation s;
    Semaphore sem(s, 2);
    int active = 0;
    int peak = 0;
    for (int i = 0; i < 6; ++i) {
        s.spawn([](Simulation &sim, Semaphore &sm, int *act,
                   int *pk) -> Task<> {
            co_await sm.acquire();
            ++*act;
            *pk = std::max(*pk, *act);
            co_await sim.delay(usec(10));
            --*act;
            sm.release();
        }(s, sem, &active, &peak));
    }
    s.run();
    EXPECT_EQ(peak, 2);
    EXPECT_EQ(active, 0);
    EXPECT_EQ(s.now(), usec(30)); // 6 jobs, 2 wide, 10 us each
}

TEST(Semaphore, TryAcquire)
{
    Simulation s;
    Semaphore sem(s, 1);
    EXPECT_TRUE(sem.tryAcquire());
    EXPECT_FALSE(sem.tryAcquire());
    sem.release();
    EXPECT_TRUE(sem.tryAcquire());
}

TEST(SimMutex, MutualExclusion)
{
    Simulation s;
    SimMutex m(s);
    bool inside = false;
    int violations = 0;
    for (int i = 0; i < 4; ++i) {
        s.spawn([](Simulation &sim, SimMutex &mx, bool *in,
                   int *bad) -> Task<> {
            co_await mx.lock();
            if (*in)
                ++*bad;
            *in = true;
            co_await sim.delay(5);
            *in = false;
            mx.unlock();
        }(s, m, &inside, &violations));
    }
    s.run();
    EXPECT_EQ(violations, 0);
}

TEST(Condition, WaitAndNotify)
{
    Simulation s;
    Condition c(s);
    bool flag = false;
    int woke_at = -1;
    s.spawn([](Simulation &sim, Condition &cond, bool *f,
               int *at) -> Task<> {
        while (!*f)
            co_await cond.wait();
        *at = static_cast<int>(sim.now());
    }(s, c, &flag, &woke_at));
    s.schedule(42, [&] {
        flag = true;
        c.notifyAll();
    });
    s.run();
    EXPECT_EQ(woke_at, 42);
}

TEST(Channel, FifoDelivery)
{
    Simulation s;
    Channel<int> ch(s);
    std::vector<int> got;
    s.spawn([](Channel<int> &c, std::vector<int> *out) -> Task<> {
        for (int i = 0; i < 3; ++i)
            out->push_back(co_await c.recv());
    }(ch, &got));
    s.schedule(1, [&] { ch.send(10); });
    s.schedule(2, [&] {
        ch.send(20);
        ch.send(30);
    });
    s.run();
    EXPECT_EQ(got, (std::vector<int>{10, 20, 30}));
}

TEST(Simulation, YieldRunsBehindQueuedPeers)
{
    Simulation s;
    std::vector<int> order;
    s.schedule(0, [&] { order.push_back(2); });
    // spawn() runs the coroutine body immediately; yield() then
    // queues its resumption behind the already-queued event.
    s.spawn([](Simulation &sim, std::vector<int> *ord) -> Task<> {
        ord->push_back(1);
        co_await sim.yield();
        ord->push_back(3);
    }(s, &order));
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(JoinAll, PropagatesFirstError)
{
    Simulation s;
    auto ok = [](Simulation &sim) -> Task<> {
        co_await sim.delay(usec(5));
    };
    auto bad = [](Simulation &sim) -> Task<> {
        co_await sim.delay(usec(1));
        throw std::runtime_error("subtask failed");
    };
    std::vector<Task<>> tasks;
    tasks.push_back(ok(s));
    tasks.push_back(bad(s));
    bool caught = false;
    s.spawn([](Simulation &sim, std::vector<Task<>> ts,
               bool *c) -> Task<> {
        try {
            co_await joinAll(sim, std::move(ts));
        } catch (const std::runtime_error &) {
            *c = true;
        }
    }(s, std::move(tasks), &caught));
    s.run();
    EXPECT_TRUE(caught);
}

TEST(JoinAll, EmptyListCompletesImmediately)
{
    Simulation s;
    bool done = false;
    s.spawn([](Simulation &sim, bool *d) -> Task<> {
        co_await joinAll(sim, {});
        *d = true;
    }(s, &done));
    s.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(s.now(), 0);
}

TEST(JoinAll, WaitsForAllAndKeepsTiming)
{
    Simulation s;
    int done = 0;
    auto job = [](Simulation &sim, Duration d, int *n) -> Task<> {
        co_await sim.delay(d);
        ++*n;
    };
    std::vector<Task<>> tasks;
    tasks.push_back(job(s, usec(10), &done));
    tasks.push_back(job(s, usec(30), &done));
    tasks.push_back(job(s, usec(20), &done));
    SimTime end = -1;
    s.spawn([](Simulation &sim, std::vector<Task<>> ts,
               SimTime *e) -> Task<> {
        co_await joinAll(sim, std::move(ts));
        *e = sim.now();
    }(s, std::move(tasks), &end));
    s.run();
    EXPECT_EQ(done, 3);
    EXPECT_EQ(end, usec(30));
}

TEST(CpuPool, SixJobsOnTwoCpus)
{
    Simulation s;
    CpuPool pool(s, 2);
    for (int i = 0; i < 6; ++i) {
        s.spawn([](Simulation &, CpuPool &p) -> Task<> {
            co_await p.acquire();
            co_await p.compute(msec(1));
            p.release();
        }(s, pool));
    }
    s.run();
    EXPECT_EQ(s.now(), msec(3));
    EXPECT_EQ(pool.busyTime(), msec(6));
    EXPECT_DOUBLE_EQ(pool.utilization(), 1.0);
    EXPECT_EQ(pool.acquisitions(), 6u);
}

TEST(SyncAllocation, QueuedWaitsAllocateNothing)
{
    // A wait parks the awaiter itself on the primitive's wait list, so
    // steady queueing on a warm semaphore costs no global heap.
    if (!mem::hooksActive())
        GTEST_SKIP() << "heap accounting compiled out";
    Simulation s;
    Semaphore sem(s, 1);
    auto spawnWorkers = [&s, &sem](int rounds) {
        for (int i = 0; i < 200; ++i) {
            s.spawn([](Simulation &sim, Semaphore &sm, int n) -> Task<> {
                for (int k = 0; k < n; ++k) {
                    co_await sm.acquire();
                    co_await sim.delay(1);
                    sm.release();
                }
            }(s, sem, rounds));
        }
    };
    spawnWorkers(2); // warm the frame pool and the engine's queues
    s.run();
    const std::uint64_t a0 = mem::threadAllocations();
    spawnWorkers(1000);
    s.run();
    EXPECT_EQ(mem::threadAllocations() - a0, 0u);
    EXPECT_EQ(s.now(), 2 * 200 + 1000 * 200);
    EXPECT_EQ(sem.available(), 1);
}

TEST(SimulationRing, WarmThreadGrowsRingWithoutHeap)
{
    // 40 events at one instant grow the same-instant ring from 16 to
    // 64 entries (3,072 bytes). Once a first engine on this thread has
    // given its rings back, a second takes all three from the frame
    // pool and none from the global heap.
    if (!mem::hooksActive())
        GTEST_SKIP() << "heap accounting compiled out";
    int ran = 0;
    auto burst = [&ran](Simulation &s) {
        for (int i = 0; i < 40; ++i)
            s.schedule(0, [&ran] { ++ran; });
        s.run();
    };
    {
        Simulation first;
        burst(first);
    }
    Simulation second;
    const std::uint64_t a0 = mem::threadAllocations();
    burst(second);
    EXPECT_EQ(mem::threadAllocations() - a0, 0u);
    EXPECT_EQ(ran, 80);
}

TEST(SyncTeardown, ParkedWaitersSurviveTeardownInEitherOrder)
{
    // Coroutines parked on each primitive when the run ends: the engine
    // destroys their frames, and no primitive may touch those frames
    // whether it goes first or last.
    for (bool simFirst : {true, false}) {
        auto s = std::make_unique<Simulation>();
        auto sem = std::make_unique<Semaphore>(*s, 0);
        auto cond = std::make_unique<Condition>(*s);
        auto promise = std::make_unique<Promise<int>>(*s);
        auto pool = std::make_unique<CpuPool>(*s, 1);
        int woke = 0;
        for (int i = 0; i < 2; ++i) {
            s->spawn([](Semaphore &sm, int &w) -> Task<> {
                co_await sm.acquire();
                ++w;
            }(*sem, woke));
            s->spawn([](Condition &c, int &w) -> Task<> {
                co_await c.wait();
                ++w;
            }(*cond, woke));
            s->spawn([](Future<int> f, int &w) -> Task<> {
                w += co_await f;
            }(promise->future(), woke));
            // The first takes the only CPU and keeps it.
            s->spawn([](CpuPool &p) -> Task<> {
                co_await p.acquire();
            }(*pool));
        }
        s->run();
        EXPECT_EQ(woke, 0);
        EXPECT_EQ(s->liveTasks(), 7);
        EXPECT_EQ(sem->waiting(), 2);
        EXPECT_EQ(cond->waiting(), 2);
        EXPECT_EQ(pool->queued(), 1);
        auto dropPrimitives = [&] {
            sem.reset();
            cond.reset();
            promise.reset();
            pool.reset();
        };
        if (simFirst) {
            s.reset();
            dropPrimitives();
        } else {
            dropPrimitives();
            s.reset();
        }
    }
}

TEST(Random, Determinism)
{
    Random a(123), b(123), c(124);
    bool all_equal = true;
    bool any_diff = false;
    for (int i = 0; i < 100; ++i) {
        auto x = a.next();
        if (x != b.next())
            all_equal = false;
        if (x != c.next())
            any_diff = true;
    }
    EXPECT_TRUE(all_equal);
    EXPECT_TRUE(any_diff);
}

TEST(Random, UniformBounds)
{
    Random r(7);
    for (int i = 0; i < 1000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        auto k = r.below(13);
        EXPECT_LT(k, 13u);
        auto b = r.between(-5, 5);
        EXPECT_GE(b, -5);
        EXPECT_LE(b, 5);
    }
}

TEST(Random, ExponentialMean)
{
    Random r(99);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += r.exponential(25.0);
    EXPECT_NEAR(sum / n, 25.0, 1.0);
}

TEST(Random, ZipfSkew)
{
    Random r(5);
    int low = 0;
    const int n = 2000;
    for (int i = 0; i < n; ++i)
        if (r.zipf(100, 1.0) < 10)
            ++low;
    // With s=1, the first 10 of 100 ranks hold well over a third of
    // the mass.
    EXPECT_GT(low, n / 3);
}

TEST(Channel, SizeAndEmpty)
{
    Simulation s;
    Channel<int> ch(s);
    EXPECT_TRUE(ch.empty());
    ch.send(1);
    ch.send(2);
    EXPECT_EQ(ch.size(), 2u);
    int got = 0;
    s.spawn([](Channel<int> &c, int *out) -> Task<> {
        *out = co_await c.recv();
    }(ch, &got));
    s.run();
    EXPECT_EQ(got, 1);
    EXPECT_EQ(ch.size(), 1u);
}

TEST(Stats, DistributionReset)
{
    Distribution d;
    d.add(5);
    d.add(10);
    d.reset();
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.percentile(0.5), 0.0);
    d.add(3);
    EXPECT_DOUBLE_EQ(d.mean(), 3.0);
}

TEST(Stats, SampleAggregates)
{
    SampleStats st;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        st.add(v);
    EXPECT_EQ(st.count(), 8u);
    EXPECT_DOUBLE_EQ(st.mean(), 5.0);
    EXPECT_DOUBLE_EQ(st.min(), 2.0);
    EXPECT_DOUBLE_EQ(st.max(), 9.0);
    EXPECT_NEAR(st.stddev(), 2.138, 0.01);
}

TEST(Stats, DistributionPercentiles)
{
    Distribution d;
    for (int i = 1; i <= 100; ++i)
        d.add(i);
    EXPECT_DOUBLE_EQ(d.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(d.percentile(1.0), 100.0);
    EXPECT_NEAR(d.percentile(0.5), 50.5, 0.01);
    EXPECT_NEAR(d.percentile(0.9), 90.1, 0.2);
    EXPECT_EQ(d.count(), 100u);
    EXPECT_DOUBLE_EQ(d.max(), 100.0);
}

/** The p-quantile as a full sort gives it. */
double
sortedPercentile(std::vector<double> v, double p)
{
    std::sort(v.begin(), v.end());
    double idx = p * (v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(idx);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = idx - lo;
    return v[lo] * (1.0 - frac) + v[hi] * frac;
}

TEST(Stats, PercentilesBySelectionEqualASortsExactly)
{
    // Shuffled samples with many duplicates, queried out of order and
    // again after more samples and a merge: each answer must equal the
    // sorted reference bit for bit.
    Random rng(7);
    std::vector<double> ref;
    Distribution d;
    auto addSome = [&](Distribution &to, int n) {
        for (int i = 0; i < n; ++i) {
            const double v =
                static_cast<double>(rng.below(300)) / 8.0 - 5.0;
            to.add(v);
            ref.push_back(v);
        }
    };
    const double ps[] = {0.99, 0.1, 0.5, 1.0, 0.0, 0.999, 0.25,
                         0.75, 0.9, 0.01, 0.5, 0.333};
    auto expectAll = [&] {
        for (double p : ps)
            EXPECT_EQ(d.percentile(p), sortedPercentile(ref, p))
                << "p " << p << " n " << ref.size();
    };
    addSome(d, 1);
    expectAll();
    addSome(d, 1);
    expectAll();
    addSome(d, 2001);
    expectAll();
    Distribution more;
    addSome(more, 999);
    (void)more.percentile(0.7);
    d.merge(more);
    addSome(d, 17);
    expectAll();
    EXPECT_EQ(d.count(), ref.size());
}

} // namespace
} // namespace vpp::sim
