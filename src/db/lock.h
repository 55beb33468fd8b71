/**
 * @file
 * Hierarchical locking for the database study (paper §3.3: "A
 * hierarchical locking scheme is used for concurrency control").
 *
 * Standard multi-granularity modes (IS/IX/S/X) on relations plus S/X
 * page locks beneath them. Grants are FIFO: a request that is
 * incompatible with current holders — or behind an incompatible
 * waiter — queues, which prevents writer starvation and makes lock
 * convoys (the phenomenon Table 4 quantifies) behave realistically.
 * Waiting requests queue on the wait list that every sim primitive
 * shares (sim/sync.h), under the same teardown rule: nothing releases
 * a lock from a destructor.
 */

#ifndef VPP_DB_LOCK_H
#define VPP_DB_LOCK_H

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/simulation.h"
#include "sim/sync.h" // WaitList
#include "sim/task.h" // PoolVector
#include "sim/time.h"

namespace vpp::db {

enum class LockMode
{
    IS,
    IX,
    S,
    X,
};

const char *lockModeName(LockMode m);

/** Multi-granularity compatibility matrix. */
bool lockCompatible(LockMode a, LockMode b);

/**
 * One lockable object supporting the four modes with FIFO grants.
 *
 * acquire() returns a plain awaiter, not a task. A request that can be
 * granted at once completes without suspending or building a frame.
 * One that has to wait parks on the lock's sim::detail::WaitList, and
 * the release that grants it schedules its coroutine at the release
 * instant: one event.
 */
class MultiModeLock
{
  public:
    /**
     * acquire()'s awaiter. While its coroutine waits, the awaiter lives
     * in that coroutine's frame and is itself the queue entry: it holds
     * the mode and the arrival time, so queueing allocates nothing. The
     * lock never owns or destroys a waiting frame.
     */
    class Acquire : public sim::detail::Waiter
    {
      public:
        Acquire(const Acquire &) = delete;
        Acquire &operator=(const Acquire &) = delete;

        bool await_ready() { return lock_->tryAcquire(mode_); }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            ++lock_->waits_;
            since_ = lock_->sim_->now();
            lock_->waiters_.push(*this, h);
        }

        void await_resume() const noexcept {}

      private:
        friend class MultiModeLock;

        Acquire(MultiModeLock &l, LockMode m) : lock_(&l), mode_(m) {}

        MultiModeLock *lock_;
        LockMode mode_;
        sim::SimTime since_ = 0;
    };

    explicit MultiModeLock(sim::Simulation &s) : sim_(&s) {}

    MultiModeLock(const MultiModeLock &) = delete;
    MultiModeLock &operator=(const MultiModeLock &) = delete;

    [[nodiscard]] Acquire acquire(LockMode m) { return Acquire(*this, m); }

    /** Drop one hold of @p m; SimPanic if @p m has no holder. */
    void release(LockMode m);

    bool tryAcquire(LockMode m);

    int holders(LockMode m) const
    {
        return held_[static_cast<int>(m)];
    }

    int waiting() const { return static_cast<int>(waiters_.size()); }

    /** No holder in any mode and no waiter. */
    bool
    idle() const
    {
        return held_[0] == 0 && held_[1] == 0 && held_[2] == 0 &&
               held_[3] == 0 && waiters_.empty();
    }

    /** Aggregate time spent blocked on this lock. */
    sim::Duration waitTime() const { return waitTime_; }
    std::uint64_t waits() const { return waits_; }

  private:
    bool compatibleWithHolders(LockMode m) const;
    void drainQueue();

    sim::Simulation *sim_;
    int held_[4] = {0, 0, 0, 0};
    sim::detail::WaitList waiters_;
    sim::Duration waitTime_ = 0;
    std::uint64_t waits_ = 0;
};

/**
 * Two-level hierarchy: relations (intention + shared/exclusive) and
 * pages under them. Callers must follow the protocol: an intention
 * mode on the relation before any page lock, and acquire relations in
 * ascending id order (deadlock avoidance).
 *
 * Relation locks live for the manager's lifetime. A page lock exists
 * only while it is held or waited on: it is created by the first
 * lockPage and dropped by the unlockPage that leaves it idle, so the
 * table stays as small as the set of pages in use. Page-lock wait
 * statistics therefore do not survive; only relation waits are kept.
 *
 * The page locks sit in one flat, open-addressed table of
 * {page, relation, lock} slots: a power of two of them, found by a
 * multiplicative hash and linear probing, grown at half load and
 * cleared by backward shift, so no tombstone is ever left. Growth
 * moves slots, never locks: a lock lives in a frame-pool block of its
 * own from its first lockPage to its last unlockPage, so a request
 * parked in its queue keeps pointing at it. Once warm, making and
 * dropping a page lock costs no global heap.
 */
class HierarchicalLockManager
{
  public:
    HierarchicalLockManager(sim::Simulation &s, int relations);
    ~HierarchicalLockManager();

    HierarchicalLockManager(const HierarchicalLockManager &) = delete;
    HierarchicalLockManager &
    operator=(const HierarchicalLockManager &) = delete;

    [[nodiscard]] MultiModeLock::Acquire lockRelation(int rel,
                                                      LockMode m);
    void unlockRelation(int rel, LockMode m);

    /**
     * Make the page's lock if it has none and return its awaiter.
     * The lock exists from this call on, so the request must be
     * awaited.
     */
    [[nodiscard]] MultiModeLock::Acquire lockPage(int rel,
                                                  std::uint64_t page,
                                                  LockMode m);
    /** SimPanic if the page has no live lock or @p m is not held. */
    void unlockPage(int rel, std::uint64_t page, LockMode m);

    /** Page locks currently held or waited on. */
    std::size_t livePageLocks() const { return live_; }

    MultiModeLock &relation(int rel) { return *relations_.at(rel); }

    sim::Duration
    totalRelationWaitTime() const
    {
        sim::Duration t = 0;
        for (const auto &r : relations_)
            t += r->waitTime();
        return t;
    }

  private:
    /** A live page lock and its key; empty while lock is null. */
    struct PageSlot
    {
        std::uint64_t page;
        int rel;
        MultiModeLock *lock;
    };

    /** The slot holding the key, or the empty slot ending its run. */
    std::size_t probe(int rel, std::uint64_t page) const;
    /** The first slot of the key's probe run. */
    std::size_t home(int rel, std::uint64_t page) const;
    void grow();
    void erase(std::size_t hole);

    sim::Simulation *sim_;
    std::vector<std::unique_ptr<MultiModeLock>> relations_;
    /// A power-of-two array in frame-pool storage, at most half full.
    sim::PoolVector<PageSlot> slots_;
    std::size_t mask_ = 0; ///< slots_.size() - 1
    unsigned shift_ = 64;  ///< 64 - log2(slots_.size())
    std::size_t live_ = 0;
};

} // namespace vpp::db

#endif // VPP_DB_LOCK_H
