/**
 * @file
 * Tests for the database study substrate: multi-granularity locks,
 * the hierarchical lock manager, and the Table 4 study itself
 * (ordering invariants and determinism on short runs).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "core/kernel.h" // runTask
#include "db/cluster.h"
#include "db/lock.h"
#include "db/study.h"
#include "sim/random.h"
#include "sim/resource.h"
#include "sim/task.h" // threadFrameBlocks

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
// The page-lock table against a reference model
// ----------------------------------------------------------------------

struct PageKey
{
    int rel;
    std::uint64_t page;
    auto operator<=>(const PageKey &) const = default;
};

/**
 * One page lock as the reference sees it: holders per mode and the
 * FIFO of waiting requests (id, mode), granted as MultiModeLock
 * grants.
 */
struct RefLock
{
    int held[4] = {0, 0, 0, 0};
    std::deque<std::pair<int, LockMode>> waiting;

    bool
    compatible(LockMode m) const
    {
        for (int i = 0; i < 4; ++i) {
            if (held[i] > 0 && !lockCompatible(m, static_cast<LockMode>(i)))
                return false;
        }
        return true;
    }

    void
    request(int id, LockMode m, std::vector<int> &grants)
    {
        if (waiting.empty() && compatible(m)) {
            ++held[static_cast<int>(m)];
            grants.push_back(id);
        } else {
            waiting.emplace_back(id, m);
        }
    }

    void
    release(LockMode m, std::vector<int> &grants)
    {
        --held[static_cast<int>(m)];
        while (!waiting.empty() && compatible(waiting.front().second)) {
            ++held[static_cast<int>(waiting.front().second)];
            grants.push_back(waiting.front().first);
            waiting.pop_front();
        }
    }

    bool
    idle() const
    {
        return held[0] + held[1] + held[2] + held[3] == 0 &&
               waiting.empty();
    }
};

/**
 * A key from one of three families that pile keys into shared probe
 * runs: dense low pages, one page number live in every relation at
 * once, and pages that differ only above bit 40.
 */
PageKey
drawKey(sim::Random &rng)
{
    const int rel = static_cast<int>(rng.below(4));
    switch (rng.below(3)) {
      case 0: return {rel, rng.below(128)};
      case 1: return {rel, 4096};
      default: return {rel, (rng.below(128) + 1) << 40};
    }
}

TEST(HierarchicalLock, TableMatchesReference)
{
    // Random S and X requests and unlocks over 4 x 257 keys, first
    // mostly requests, then even, then mostly unlocks, and at last a
    // drain: the live count climbs past 256 and falls to zero, so
    // the table grows through every size up to there and deletes from
    // inside long probe runs. After every step the grants so far, in
    // order, and the live page locks match the reference; so does a
    // bad unlock, which panics and changes nothing.
    constexpr int kSteps = 6000;
    auto txn = [](HierarchicalLockManager &lk, PageKey k, LockMode m,
                  int id, std::vector<int> &g) -> sim::Task<> {
        co_await lk.lockPage(k.rel, k.page, m);
        g.push_back(id);
    };
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(seed);
        sim::Simulation s;
        HierarchicalLockManager locks(s, 4);
        sim::Random rng(seed);
        std::vector<std::pair<PageKey, LockMode>> reqs; // by id
        std::vector<int> granted;  // as the manager granted them
        std::vector<int> expected; // as the reference grants them
        std::size_t checked = 0;
        std::vector<int> holding; // granted and not yet unlocked
        std::map<PageKey, RefLock> ref;
        std::size_t peakLive = 0;

        auto unlock = [&](std::size_t j) {
            const int id = holding[j];
            holding[j] = holding.back();
            holding.pop_back();
            const auto [k, m] = reqs[static_cast<std::size_t>(id)];
            auto it = ref.find(k);
            it->second.release(m, expected);
            if (it->second.idle())
                ref.erase(it);
            locks.unlockPage(k.rel, k.page, m);
        };
        auto check = [&] {
            s.run(); // the wakes the last step scheduled
            ASSERT_EQ(granted.size(), expected.size());
            for (; checked < expected.size(); ++checked) {
                ASSERT_EQ(granted[checked], expected[checked])
                    << "grant " << checked;
                holding.push_back(expected[checked]);
            }
            ASSERT_EQ(locks.livePageLocks(), ref.size());
            peakLive = std::max(peakLive, ref.size());
        };

        for (int step = 0; step < kSteps; ++step) {
            const double pRequest = step < kSteps / 3       ? 0.75
                                    : step < 2 * kSteps / 3 ? 0.5
                                                            : 0.25;
            if (rng.uniform() < 0.05) {
                // An unlock no holder matches.
                const PageKey k = drawKey(rng);
                const LockMode m =
                    rng.below(2) ? LockMode::S : LockMode::X;
                auto it = ref.find(k);
                if (it == ref.end() ||
                    it->second.held[static_cast<int>(m)] == 0) {
                    EXPECT_THROW(locks.unlockPage(k.rel, k.page, m),
                                 sim::SimPanic);
                }
            } else if (holding.empty() || rng.uniform() < pRequest) {
                const PageKey k = drawKey(rng);
                const LockMode m =
                    rng.below(2) ? LockMode::S : LockMode::X;
                const int id = static_cast<int>(reqs.size());
                reqs.emplace_back(k, m);
                ref[k].request(id, m, expected);
                s.spawn(txn(locks, k, m, id, granted));
            } else {
                unlock(rng.below(holding.size()));
            }
            check();
            if (testing::Test::HasFatalFailure())
                return;
        }
        while (!holding.empty()) {
            unlock(holding.size() - 1);
            check();
            if (testing::Test::HasFatalFailure())
                return;
        }
        EXPECT_TRUE(ref.empty());
        EXPECT_EQ(locks.livePageLocks(), 0u);
        EXPECT_EQ(s.liveTasks(), 0);
        EXPECT_GT(peakLive, 256u);
        EXPECT_EQ(granted.size(), reqs.size());
    }
}

TEST(HierarchicalLock, ParkedWaitersSurviveTableGrowth)
{
    // X requests park behind X holders on 8 pages of relation 1.
    // Then 1,000 more page locks are made, which grows the table
    // several times, and dropped again. Each parked request still
    // points at the lock it parked on: the holders' unlocks grant the
    // waiters, in page order, and the last unlocks leave nothing.
    constexpr std::uint64_t kParked = 8;
    constexpr std::uint64_t kFill = 1000;
    sim::Simulation s;
    HierarchicalLockManager locks(s, 2);
    std::vector<int> grants;
    auto txn = [](HierarchicalLockManager &lk, int rel,
                  std::uint64_t page, int id,
                  std::vector<int> &g) -> sim::Task<> {
        co_await lk.lockPage(rel, page, LockMode::X);
        g.push_back(id);
    };
    for (std::uint64_t p = 0; p < kParked; ++p) {
        s.spawn(txn(locks, 1, p, static_cast<int>(p), grants));
        s.spawn(txn(locks, 1, p, static_cast<int>(100 + p), grants));
    }
    ASSERT_EQ(grants.size(), kParked);
    EXPECT_EQ(locks.livePageLocks(), kParked);

    for (std::uint64_t p = 0; p < kFill; ++p)
        s.spawn(txn(locks, 0, p, -1, grants));
    EXPECT_EQ(locks.livePageLocks(), kParked + kFill);
    for (std::uint64_t p = 0; p < kFill; ++p)
        locks.unlockPage(0, p, LockMode::X);
    EXPECT_EQ(locks.livePageLocks(), kParked);

    grants.clear();
    for (std::uint64_t p = 0; p < kParked; ++p)
        locks.unlockPage(1, p, LockMode::X);
    s.run();
    std::vector<int> expect;
    for (std::uint64_t p = 0; p < kParked; ++p)
        expect.push_back(static_cast<int>(100 + p));
    EXPECT_EQ(grants, expect);
    EXPECT_EQ(locks.livePageLocks(), kParked);
    for (std::uint64_t p = 0; p < kParked; ++p)
        locks.unlockPage(1, p, LockMode::X);
    EXPECT_EQ(locks.livePageLocks(), 0u);
    EXPECT_EQ(s.liveTasks(), 0);
}

// ----------------------------------------------------------------------
// Events of a whole cluster transaction, local and remote
// ----------------------------------------------------------------------

/** Two nodes, one arrival each: the first comes after the window. */
ClusterParams
twoArrivals(double remoteFraction)
{
    ClusterParams p;
    p.nodes = 2;
    p.cpusPerNode = 2;
    p.remoteFraction = remoteFraction;
    p.durationSec = 1e-9;
    p.workers = 1;
    return p;
}

TEST(DbTxnEvents, RemoteBranchEvents)
{
    // Each node's arrival is one event. A local transaction adds its
    // compute's wake and takes 1.2 ms. A remote one holds its home
    // locks across the round trip and adds five events: the home
    // compute's wake, the request mail on the remote node, the remote
    // compute's wake, the reply mail at home and the home
    // transaction's resume, at the same instant as the reply. It takes
    // 1.2 + 0.5 + 0.6 + 0.5 = 2.8 ms, with two of the mails.
    const ClusterResult local = runClusterStudy(twoArrivals(0.0));
    EXPECT_EQ(local.arrived, 2u);
    EXPECT_EQ(local.txns, 2u);
    EXPECT_EQ(local.remoteTxns, 0u);
    EXPECT_EQ(local.events, 2u * (1 + 1));
    EXPECT_EQ(local.crossEvents, 0u);
    EXPECT_DOUBLE_EQ(local.avgMs, 1.2);
    EXPECT_DOUBLE_EQ(local.worstMs, 1.2);

    const ClusterResult remote =
        runClusterStudy(twoArrivals(1.0));
    EXPECT_EQ(remote.arrived, 2u);
    EXPECT_EQ(remote.txns, 2u);
    EXPECT_EQ(remote.remoteTxns, 2u);
    EXPECT_EQ(remote.events, 2u * (1 + 5));
    EXPECT_EQ(remote.crossEvents, 2u * 2);
    EXPECT_DOUBLE_EQ(remote.avgMs, 2.8);
    EXPECT_DOUBLE_EQ(remote.worstMs, 2.8);
    EXPECT_DOUBLE_EQ(remote.remoteAvgMs, 2.8);
    EXPECT_EQ(remote.lockWaitSec, 0.0);
    // The same arrival draws: the remote run ends 1.6 ms later, and
    // its CPUs were busy 2 x 1.8 ms against 2 x 1.2 ms.
    const double localEnd = 2.0 / local.tpsAchieved;
    const double remoteEnd = 2.0 / remote.tpsAchieved;
    EXPECT_NEAR(remoteEnd - localEnd, 1.6e-3, 1e-12);
    EXPECT_NEAR(remote.cpuUtilization * remoteEnd * 4, 3.6e-3, 1e-12);
    EXPECT_NEAR(local.cpuUtilization * localEnd * 4, 2.4e-3, 1e-12);
    // The engine's windows, which this seed's arrival times decide.
    EXPECT_EQ(remote.epochs, 5u);
}

TEST(DbTxnFrames, WarmTransactionsBuildAFixedFew)
{
    // Frame-pool blocks of warm transactions: one seed at two
    // durations of a two-node cluster at 20 TPS, where no two
    // transactions share a page lock, so the difference is what the
    // extra transactions took. A local one takes 3: its coroutine, its
    // root and its page lock. A remote one takes 6: those 3 at home
    // and 3 more for its branch on the remote node. Its two mails
    // carry one pointer each, inline, and it makes no promise state.
    auto run = [](double remoteFraction, double sec) {
        ClusterParams p = twoArrivals(remoteFraction);
        p.tps = 20;
        p.durationSec = sec;
        const std::uint64_t b0 = sim::threadFrameBlocks();
        const ClusterResult r = runClusterStudy(p);
        return std::pair{sim::threadFrameBlocks() - b0, r.txns};
    };
    for (const auto &[fraction, perTxn] :
         {std::pair{0.0, 3u}, std::pair{1.0, 6u}}) {
        SCOPED_TRACE(fraction);
        const auto [shortBlocks, shortTxns] = run(fraction, 0.5);
        const auto [longBlocks, longTxns] = run(fraction, 2.0);
        ASSERT_GT(longTxns, shortTxns + 10);
        EXPECT_EQ(longBlocks - shortBlocks,
                  perTxn * (longTxns - shortTxns));
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
