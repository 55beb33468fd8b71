/**
 * @file
 * Tests for the database study substrate: multi-granularity locks,
 * the hierarchical lock manager, and the Table 4 study itself
 * (ordering invariants and determinism on short runs).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include "core/kernel.h" // runTask
#include "db/lock.h"
#include "db/study.h"
#include "sim/resource.h"

namespace vpp::db {
namespace {

using kernel::runTask;
using sim::msec;

// ----------------------------------------------------------------------
// Lock compatibility (property-style over the full matrix)
// ----------------------------------------------------------------------

class Compat : public ::testing::TestWithParam<
                   std::tuple<LockMode, LockMode, bool>>
{};

TEST_P(Compat, MatrixMatchesTextbook)
{
    auto [a, b, expect] = GetParam();
    EXPECT_EQ(lockCompatible(a, b), expect)
        << lockModeName(a) << " vs " << lockModeName(b);
    // Compatibility is symmetric.
    EXPECT_EQ(lockCompatible(a, b), lockCompatible(b, a));
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, Compat,
    ::testing::Values(
        std::make_tuple(LockMode::IS, LockMode::IS, true),
        std::make_tuple(LockMode::IS, LockMode::IX, true),
        std::make_tuple(LockMode::IS, LockMode::S, true),
        std::make_tuple(LockMode::IS, LockMode::X, false),
        std::make_tuple(LockMode::IX, LockMode::IX, true),
        std::make_tuple(LockMode::IX, LockMode::S, false),
        std::make_tuple(LockMode::IX, LockMode::X, false),
        std::make_tuple(LockMode::S, LockMode::S, true),
        std::make_tuple(LockMode::S, LockMode::X, false),
        std::make_tuple(LockMode::X, LockMode::X, false)));

TEST(MultiModeLock, SharedHoldersCoexist)
{
    sim::Simulation s;
    MultiModeLock l(s);
    EXPECT_TRUE(l.tryAcquire(LockMode::S));
    EXPECT_TRUE(l.tryAcquire(LockMode::S));
    EXPECT_TRUE(l.tryAcquire(LockMode::IS));
    EXPECT_FALSE(l.tryAcquire(LockMode::X));
    EXPECT_FALSE(l.tryAcquire(LockMode::IX));
    l.release(LockMode::S);
    l.release(LockMode::S);
    l.release(LockMode::IS);
    EXPECT_TRUE(l.tryAcquire(LockMode::X));
}

TEST(MultiModeLock, WriterWakesWhenReadersLeave)
{
    sim::Simulation s;
    MultiModeLock l(s);
    std::vector<int> order;

    s.spawn([](sim::Simulation &sim, MultiModeLock &lk,
               std::vector<int> &ord) -> sim::Task<> {
        co_await lk.acquire(LockMode::S);
        co_await sim.delay(msec(10));
        ord.push_back(1);
        lk.release(LockMode::S);
    }(s, l, order));
    s.spawn([](sim::Simulation &sim, MultiModeLock &lk,
               std::vector<int> &ord) -> sim::Task<> {
        co_await sim.delay(msec(1));
        co_await lk.acquire(LockMode::X);
        ord.push_back(2);
        lk.release(LockMode::X);
    }(s, l, order));
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(l.waits(), 1u);
    EXPECT_EQ(l.waitTime(), msec(9));
}

TEST(MultiModeLock, FifoPreventsWriterStarvation)
{
    sim::Simulation s;
    MultiModeLock l(s);
    std::vector<int> order;

    auto reader = [](sim::Simulation &sim, MultiModeLock &lk,
                     std::vector<int> &ord, sim::Duration at,
                     int id) -> sim::Task<> {
        co_await sim.delay(at);
        co_await lk.acquire(LockMode::S);
        ord.push_back(id);
        co_await sim.delay(msec(10));
        lk.release(LockMode::S);
    };
    auto writer = [](sim::Simulation &sim, MultiModeLock &lk,
                     std::vector<int> &ord, sim::Duration at,
                     int id) -> sim::Task<> {
        co_await sim.delay(at);
        co_await lk.acquire(LockMode::X);
        ord.push_back(id);
        lk.release(LockMode::X);
    };
    // Reader at t=0, writer at t=1ms, second reader at t=2ms. Without
    // FIFO the second reader would jump the writer.
    s.spawn(reader(s, l, order, 0, 1));
    s.spawn(writer(s, l, order, msec(1), 2));
    s.spawn(reader(s, l, order, msec(2), 3));
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(MultiModeLock, CompatibleWaitersGrantTogether)
{
    sim::Simulation s;
    MultiModeLock l(s);
    int concurrent = 0, peak = 0;

    s.spawn([](sim::Simulation &sim, MultiModeLock &lk) -> sim::Task<> {
        co_await lk.acquire(LockMode::X);
        co_await sim.delay(msec(5));
        lk.release(LockMode::X);
    }(s, l));
    for (int i = 0; i < 3; ++i) {
        s.spawn([](sim::Simulation &sim, MultiModeLock &lk, int &cur,
                   int &pk) -> sim::Task<> {
            co_await sim.delay(msec(1));
            co_await lk.acquire(LockMode::S);
            ++cur;
            pk = std::max(pk, cur);
            co_await sim.delay(msec(5));
            --cur;
            lk.release(LockMode::S);
        }(s, l, concurrent, peak));
    }
    s.run();
    // All three queued shared requests were granted as a batch when
    // the writer left.
    EXPECT_EQ(peak, 3);
}

TEST(HierarchicalLock, PageLocksUnderIntention)
{
    sim::Simulation s;
    HierarchicalLockManager locks(s, 4);
    runTask(s, [](HierarchicalLockManager &lk) -> sim::Task<> {
        co_await lk.lockRelation(0, LockMode::IX);
        co_await lk.lockPage(0, 10, LockMode::X);
        // A second transaction can work on another page of the same
        // relation concurrently.
        co_await lk.lockRelation(0, LockMode::IX);
        co_await lk.lockPage(0, 11, LockMode::X);
        lk.unlockPage(0, 11, LockMode::X);
        lk.unlockRelation(0, LockMode::IX);
        lk.unlockPage(0, 10, LockMode::X);
        lk.unlockRelation(0, LockMode::IX);
    }(locks));
    // Relation-level S blocks intention writers.
    EXPECT_TRUE(locks.relation(1).tryAcquire(LockMode::S));
    EXPECT_FALSE(locks.relation(1).tryAcquire(LockMode::IX));
}

TEST(HierarchicalLock, OrderedAcquisitionAvoidsDeadlock)
{
    // Two transactions that would deadlock if they acquired their
    // relations in opposite orders; with the canonical ascending-id
    // protocol both complete.
    sim::Simulation s;
    HierarchicalLockManager locks(s, 4);
    int completed = 0;

    auto txn = [](sim::Simulation &sim, HierarchicalLockManager &lk,
                  int first, int second, int *done) -> sim::Task<> {
        int lo = std::min(first, second);
        int hi = std::max(first, second);
        co_await lk.lockRelation(lo, LockMode::X);
        co_await sim.delay(msec(5)); // guarantee interleaving
        co_await lk.lockRelation(hi, LockMode::X);
        co_await sim.delay(msec(5));
        lk.unlockRelation(hi, LockMode::X);
        lk.unlockRelation(lo, LockMode::X);
        ++*done;
    };
    // Transaction A wants (1 then 2), transaction B wants (2 then 1).
    s.spawn(txn(s, locks, 1, 2, &completed));
    s.spawn(txn(s, locks, 2, 1, &completed));
    s.run();
    EXPECT_EQ(completed, 2);
    EXPECT_EQ(locks.relation(1).waiting(), 0);
    EXPECT_EQ(locks.relation(2).waiting(), 0);
}

TEST(MultiModeLock, WaitTimeAccounting)
{
    sim::Simulation s;
    MultiModeLock l(s);
    s.spawn([](sim::Simulation &sim, MultiModeLock &lk) -> sim::Task<> {
        co_await lk.acquire(LockMode::X);
        co_await sim.delay(msec(20));
        lk.release(LockMode::X);
    }(s, l));
    s.spawn([](sim::Simulation &sim, MultiModeLock &lk) -> sim::Task<> {
        co_await sim.delay(msec(5));
        co_await lk.acquire(LockMode::S);
        lk.release(LockMode::S);
    }(s, l));
    s.run();
    EXPECT_EQ(l.waits(), 1u);
    EXPECT_EQ(l.waitTime(), msec(15));
}

TEST(MultiModeLock, ReleaseOfUnheldModePanics)
{
    sim::Simulation s;
    MultiModeLock l(s);
    EXPECT_THROW(l.release(LockMode::X), sim::SimPanic);
    EXPECT_TRUE(l.tryAcquire(LockMode::S));
    // Holding S does not make an X release legal.
    EXPECT_THROW(l.release(LockMode::X), sim::SimPanic);
    l.release(LockMode::S);
    EXPECT_THROW(l.release(LockMode::S), sim::SimPanic);
    for (LockMode m :
         {LockMode::IS, LockMode::IX, LockMode::S, LockMode::X})
        EXPECT_EQ(l.holders(m), 0) << lockModeName(m);
    EXPECT_TRUE(l.idle());
}

TEST(HierarchicalLock, UnlockOfPageWithNoLiveLockPanics)
{
    sim::Simulation s;
    HierarchicalLockManager locks(s, 2);
    EXPECT_THROW(locks.unlockPage(0, 7, LockMode::X), sim::SimPanic);
    runTask(s, [](HierarchicalLockManager &lk) -> sim::Task<> {
        co_await lk.lockPage(0, 7, LockMode::X);
    }(locks));
    // Unlocking the wrong mode panics and leaves the lock in place.
    EXPECT_THROW(locks.unlockPage(0, 7, LockMode::S), sim::SimPanic);
    EXPECT_EQ(locks.livePageLocks(), 1u);
    locks.unlockPage(0, 7, LockMode::X);
    EXPECT_EQ(locks.livePageLocks(), 0u);
    // The first unlock dropped the idle lock; a double unlock finds
    // no live lock.
    EXPECT_THROW(locks.unlockPage(0, 7, LockMode::X), sim::SimPanic);
}

TEST(HierarchicalLock, IdlePageLocksAreDropped)
{
    // Eight transactions take 1,000 steps each over 4,000 distinct
    // pages, one step every 3 ms. Transactions 2k and 2k+1 want the
    // same page at each step, so one of every pair queues for 1 ms.
    constexpr int kTxns = 8;
    constexpr std::uint64_t kSteps = 1000;
    sim::Simulation s;
    HierarchicalLockManager locks(s, 4);
    std::size_t peak = 0;
    int done = 0;

    auto txn = [](sim::Simulation &sim, HierarchicalLockManager &lk,
                  int id, std::size_t &pk, int &dn) -> sim::Task<> {
        for (std::uint64_t i = 0; i < kSteps; ++i) {
            co_await sim.delay(msec(3.0 * static_cast<double>(i)) -
                               sim.now());
            const int rel = static_cast<int>(i % 4);
            const std::uint64_t page =
                i * kTxns / 2 + static_cast<std::uint64_t>(id / 2);
            co_await lk.lockPage(rel, page, LockMode::X);
            pk = std::max(pk, lk.livePageLocks());
            co_await sim.delay(msec(1));
            lk.unlockPage(rel, page, LockMode::X);
        }
        ++dn;
    };
    for (int t = 0; t < kTxns; ++t)
        s.spawn(txn(s, locks, t, peak, done));
    s.run();

    EXPECT_EQ(done, kTxns);
    // One live page per pair, never a dead one left behind.
    EXPECT_EQ(peak, static_cast<std::size_t>(kTxns / 2));
    EXPECT_EQ(locks.livePageLocks(), 0u);
    // The last follower was granted 1 ms late and held for 1 ms.
    EXPECT_EQ(s.now(), msec(3.0 * (kSteps - 1) + 2));
}

TEST(HierarchicalLock, PageLockLivesUntilItsLastWaiterUnlocks)
{
    // X holder, then S, X and S waiters. The holder's unlock leaves
    // waiters queued, so the lock must survive it; grants follow
    // arrival order, and the last S does not jump the queued X.
    sim::Simulation s;
    HierarchicalLockManager locks(s, 1);
    std::vector<std::pair<int, sim::SimTime>> grants;

    auto txn = [](sim::Simulation &sim, HierarchicalLockManager &lk,
                  std::vector<std::pair<int, sim::SimTime>> &g,
                  sim::Duration at, LockMode m, int id) -> sim::Task<> {
        co_await sim.delay(at);
        co_await lk.lockPage(0, 42, m);
        g.emplace_back(id, sim.now());
        co_await sim.delay(msec(10));
        lk.unlockPage(0, 42, m);
    };
    s.spawn(txn(s, locks, grants, 0, LockMode::X, 1));
    s.spawn(txn(s, locks, grants, msec(1), LockMode::S, 2));
    s.spawn(txn(s, locks, grants, msec(2), LockMode::X, 3));
    s.spawn(txn(s, locks, grants, msec(3), LockMode::S, 4));

    for (std::int64_t t : {5, 15, 25, 35}) {
        s.runUntil(msec(t));
        EXPECT_EQ(locks.livePageLocks(), 1u) << "at " << t << " ms";
    }
    s.run();
    EXPECT_EQ(locks.livePageLocks(), 0u);
    std::vector<std::pair<int, sim::SimTime>> expect = {
        {1, msec(0)}, {2, msec(10)}, {3, msec(20)}, {4, msec(30)}};
    EXPECT_EQ(grants, expect);
}

// ----------------------------------------------------------------------
// Events of a transaction step: a grant that completes at once runs no
// event, and a queued request's wake is one event at the release
// ----------------------------------------------------------------------

TEST(DbTxnEvents, UncontendedStepRunsOneEvent)
{
    sim::Simulation s;
    sim::CpuPool cpus(s, 1);
    HierarchicalLockManager locks(s, 1);
    bool done = false;
    s.spawn([](sim::CpuPool &c, HierarchicalLockManager &lk,
               bool &d) -> sim::Task<> {
        co_await lk.lockRelation(0, LockMode::IX);
        co_await lk.lockPage(0, 7, LockMode::X);
        co_await c.acquire();
        co_await c.compute(sim::usec(5));
        c.release();
        lk.unlockPage(0, 7, LockMode::X);
        lk.unlockRelation(0, LockMode::IX);
        d = true;
    }(cpus, locks, done));
    s.run();
    EXPECT_TRUE(done);
    // The compute delay's wake is the only event.
    EXPECT_EQ(s.eventsRun(), 1u);
    EXPECT_EQ(s.now(), sim::usec(5));
    EXPECT_EQ(cpus.busyTime(), sim::usec(5));
    EXPECT_EQ(cpus.waitTime(), 0);
    EXPECT_EQ(cpus.acquisitions(), 1u);
    EXPECT_EQ(cpus.idle(), 1);
    EXPECT_EQ(locks.relation(0).waits(), 0u);
    EXPECT_EQ(locks.livePageLocks(), 0u);
}

TEST(DbTxnEvents, ContendedPageWakeIsOneEventAtTheRelease)
{
    // An X holder for 10 ms, then S, S and X requests that all queue
    // at t=0. Each grant records the events run so far: the holder's
    // release wakes both S waiters, in arrival order, with one event
    // each at 10 ms; the second S release wakes the X waiter with one
    // event at 20 ms.
    sim::Simulation s;
    HierarchicalLockManager locks(s, 1);
    struct Grant
    {
        int id;
        sim::SimTime at;
        std::uint64_t events;
        bool operator==(const Grant &) const = default;
    };
    std::vector<Grant> grants;

    auto txn = [](sim::Simulation &sim, HierarchicalLockManager &lk,
                  std::vector<Grant> &g, LockMode m,
                  int id) -> sim::Task<> {
        co_await lk.lockPage(0, 42, m);
        g.push_back({id, sim.now(), sim.eventsRun()});
        co_await sim.delay(msec(10));
        lk.unlockPage(0, 42, m);
    };
    s.spawn(txn(s, locks, grants, LockMode::X, 0));
    s.spawn(txn(s, locks, grants, LockMode::S, 1));
    s.spawn(txn(s, locks, grants, LockMode::S, 2));
    s.spawn(txn(s, locks, grants, LockMode::X, 3));
    EXPECT_EQ(grants.size(), 1u);
    EXPECT_EQ(s.eventsRun(), 0u);

    s.run();
    const std::vector<Grant> expect = {{0, msec(0), 0},
                                       {1, msec(10), 2},
                                       {2, msec(10), 3},
                                       {3, msec(20), 6}};
    EXPECT_EQ(grants, expect);
    // Four hold delays and three wakes.
    EXPECT_EQ(s.eventsRun(), 7u);
    EXPECT_EQ(s.now(), msec(30));
    EXPECT_EQ(locks.livePageLocks(), 0u);
}

TEST(HierarchicalLock, ParkedWaiterSurvivesTeardownInEitherOrder)
{
    // A request parked in a page lock's queue when the run ends: the
    // engine destroys its frame, and the lock manager must not touch
    // that frame whether it goes first or last.
    for (bool simFirst : {true, false}) {
        auto s = std::make_unique<sim::Simulation>();
        auto locks = std::make_unique<HierarchicalLockManager>(*s, 1);
        int granted = 0;
        auto txn = [](HierarchicalLockManager &lk,
                      int &g) -> sim::Task<> {
            co_await lk.lockRelation(0, LockMode::IX);
            co_await lk.lockPage(0, 42, LockMode::X);
            ++g;
        };
        s->spawn(txn(*locks, granted));
        s->spawn(txn(*locks, granted));
        s->run();
        EXPECT_EQ(granted, 1);
        EXPECT_EQ(s->liveTasks(), 1);
        EXPECT_EQ(locks->livePageLocks(), 1u);
        if (simFirst) {
            s.reset();
            locks.reset();
        } else {
            locks.reset();
            s.reset();
        }
    }
}

// ----------------------------------------------------------------------
// The Table 4 study (short runs)
// ----------------------------------------------------------------------

DbParams
quickParams(std::uint64_t seed = 42)
{
    DbParams p;
    p.durationSec = 60.0;
    p.seed = seed;
    return p;
}

TEST(DbStudy, CompletesAllArrivals)
{
    DbResult r = runDbStudy(DbConfig::IndexInMemory, quickParams());
    // 40 TPS for 60 s: about 2400 transactions, all completed.
    EXPECT_EQ(r.txns, r.arrived);
    EXPECT_GT(r.txns, 2200u);
    EXPECT_LT(r.txns, 2600u);
    EXPECT_NEAR(static_cast<double>(r.joins) / r.txns, 0.05, 0.02);
}

TEST(DbStudy, DeterministicForSameSeed)
{
    DbResult a = runDbStudy(DbConfig::IndexWithPaging, quickParams(7));
    DbResult b = runDbStudy(DbConfig::IndexWithPaging, quickParams(7));
    EXPECT_EQ(a.txns, b.txns);
    EXPECT_DOUBLE_EQ(a.avgMs, b.avgMs);
    EXPECT_DOUBLE_EQ(a.worstMs, b.worstMs);
}

TEST(DbStudy, Table4OrderingInvariants)
{
    DbParams p = quickParams();
    DbResult none = runDbStudy(DbConfig::NoIndex, p);
    DbResult mem = runDbStudy(DbConfig::IndexInMemory, p);
    DbResult page = runDbStudy(DbConfig::IndexWithPaging, p);
    DbResult regen = runDbStudy(DbConfig::IndexRegeneration, p);

    // Every arrival finishes: no transaction waits forever on a lock.
    for (const DbResult *r : {&none, &mem, &page, &regen})
        EXPECT_EQ(r->txns, r->arrived) << r->config;

    // The paper's qualitative claims:
    // indices help enormously when memory is available,
    EXPECT_GT(none.avgMs, 10 * mem.avgMs);
    // a little paging destroys most of the benefit,
    EXPECT_GT(page.avgMs, 5 * mem.avgMs);
    EXPECT_LT(page.avgMs, none.avgMs);
    // and regeneration recovers nearly all of it.
    EXPECT_LT(regen.avgMs, 2 * mem.avgMs);
    EXPECT_LT(regen.avgMs, page.avgMs / 5);
    EXPECT_GE(regen.avgMs, mem.avgMs);
    // Worst cases: paging and no-index are the catastrophic tails.
    EXPECT_GT(page.worstMs, 4 * regen.worstMs);
    EXPECT_GT(none.worstMs, mem.worstMs);
}

TEST(DbStudy, PagingFaultsAndRegenRebuildCounts)
{
    DbParams p = quickParams();
    DbResult page = runDbStudy(DbConfig::IndexWithPaging, p);
    DbResult regen = runDbStudy(DbConfig::IndexRegeneration, p);
    DbResult mem = runDbStudy(DbConfig::IndexInMemory, p);

    // ~2400 arrivals / 500 per eviction = ~4 evictions.
    EXPECT_GE(page.indexEvictions, 3u);
    EXPECT_EQ(page.indexPageFaults,
              page.indexEvictions * p.indexPages);
    EXPECT_EQ(page.indexRebuilds, 0u);

    EXPECT_EQ(regen.indexPageFaults, 0u);
    EXPECT_EQ(regen.indexRebuilds, regen.indexEvictions);

    EXPECT_EQ(mem.indexEvictions, 0u);
    EXPECT_EQ(mem.indexPageFaults, 0u);
}

TEST(DbStudy, NoIndexSaturatesCpus)
{
    DbParams p = quickParams();
    DbResult none = runDbStudy(DbConfig::NoIndex, p);
    DbResult mem = runDbStudy(DbConfig::IndexInMemory, p);
    EXPECT_GT(none.cpuUtilization, 0.7);
    EXPECT_LT(mem.cpuUtilization, 0.5);
}

class DbSeeds : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(DbSeeds, OrderingHoldsAcrossSeeds)
{
    DbParams p = quickParams(GetParam());
    DbResult mem = runDbStudy(DbConfig::IndexInMemory, p);
    DbResult page = runDbStudy(DbConfig::IndexWithPaging, p);
    DbResult regen = runDbStudy(DbConfig::IndexRegeneration, p);
    EXPECT_GT(page.avgMs, 5 * mem.avgMs);
    EXPECT_LT(regen.avgMs, 2 * mem.avgMs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DbSeeds,
                         ::testing::Values(1, 17, 99, 2024));

} // namespace
} // namespace vpp::db
