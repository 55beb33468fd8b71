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
 */

#ifndef VPP_DB_LOCK_H
#define VPP_DB_LOCK_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"

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

/** One lockable object supporting the four modes with FIFO grants. */
class MultiModeLock
{
  public:
    explicit MultiModeLock(sim::Simulation &s) : sim_(&s) {}

    sim::Task<> acquire(LockMode m);
    /** Drop one hold of @p m; SimPanic if @p m has no holder. */
    void release(LockMode m);

    bool tryAcquire(LockMode m);

    int holders(LockMode m) const
    {
        return held_[static_cast<int>(m)];
    }

    int waiting() const
    {
        return queue_ ? static_cast<int>(queue_->size()) : 0;
    }

    /** No holder in any mode and no waiter. */
    bool
    idle() const
    {
        return held_[0] == 0 && held_[1] == 0 && held_[2] == 0 &&
               held_[3] == 0 && waiting() == 0;
    }

    /** Aggregate time spent blocked on this lock. */
    sim::Duration waitTime() const { return waitTime_; }
    std::uint64_t waits() const { return waits_; }

  private:
    bool compatibleWithHolders(LockMode m) const;
    void drainQueue();

    struct Waiter
    {
        LockMode mode;
        sim::Promise<> wake;
        sim::SimTime since;
    };

    sim::Simulation *sim_;
    int held_[4] = {0, 0, 0, 0};
    /// Allocated by the first request that has to queue, so a lock
    /// that is only ever granted at once costs no heap.
    std::unique_ptr<std::deque<Waiter>> queue_;
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
 */
class HierarchicalLockManager
{
  public:
    HierarchicalLockManager(sim::Simulation &s, int relations);

    sim::Task<> lockRelation(int rel, LockMode m);
    void unlockRelation(int rel, LockMode m);

    sim::Task<> lockPage(int rel, std::uint64_t page, LockMode m);
    /** SimPanic if the page has no live lock or @p m is not held. */
    void unlockPage(int rel, std::uint64_t page, LockMode m);

    /** Page locks currently held or waited on. */
    std::size_t livePageLocks() const { return pages_.size(); }

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
    using PageKey = std::pair<int, std::uint64_t>;

    struct PageKeyHash
    {
        std::size_t
        operator()(const PageKey &k) const noexcept
        {
            return std::hash<std::uint64_t>{}(
                k.second * 0x9e3779b97f4a7c15ull ^
                static_cast<std::uint64_t>(k.first));
        }
    };

    sim::Simulation *sim_;
    std::vector<std::unique_ptr<MultiModeLock>> relations_;
    /// Node-based, so a lock keeps its address while a suspended
    /// lockPage waits on it, however the table grows meanwhile.
    std::unordered_map<PageKey, MultiModeLock, PageKeyHash> pages_;
};

} // namespace vpp::db

#endif // VPP_DB_LOCK_H
