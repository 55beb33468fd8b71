/**
 * @file
 * Tests for the replacement-policy subsystem (src/policy): per-policy
 * mechanics, the Belady offline optimum against a hand-computed
 * trace, the PolicyCache demand-paging harness, and a differential
 * test pinning the Clock policy behind the interface to the legacy
 * hard-wired DefaultSegmentManager::clockPass, step for step.
 */

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "apps/policy_study.h"
#include "apps/refgen.h"
#include "core/kernel.h"
#include "managers/default_mgr.h"
#include "managers/spcm.h"
#include "policy/belady.h"
#include "policy/cache.h"
#include "policy/clock.h"
#include "policy/slru.h"
#include "policy/two_q.h"
#include "policy/wsclock.h"
#include "uio/block_io.h"
#include "uio/file_server.h"

namespace vpp {
namespace {

using kernel::runTask;
using policy::Kind;
using policy::makePageId;
using policy::PageId;
using policy::PolicyParams;
using sim::usec;
namespace flag = kernel::flag;

// ----------------------------------------------------------------------
// Kind registry
// ----------------------------------------------------------------------

TEST(PolicyKind, NamesRoundTripThroughParse)
{
    for (Kind k : policy::kAllKinds) {
        auto parsed = policy::parseKind(policy::kindName(k));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, k);
    }
    EXPECT_FALSE(policy::parseKind("bogus").has_value());
    EXPECT_FALSE(policy::parseKind("").has_value());
}

TEST(PolicyKind, FactoryBuildsEveryOnlineKind)
{
    PolicyParams pp;
    pp.capacityHint = 64;
    for (Kind k : {Kind::Clock, Kind::Slru, Kind::TwoQ, Kind::WsClock}) {
        auto p = policy::make(k, pp);
        ASSERT_TRUE(p);
        EXPECT_EQ(p->kind(), k);
        EXPECT_EQ(p->size(), 0u);
    }
}

TEST(PolicyKind, BeladyWithoutTraceThrows)
{
    // Online managers cannot see the future; the factory refuses to
    // hand them a Belady policy without a recorded trace.
    EXPECT_THROW((void)policy::make(Kind::Belady, {}),
                 std::invalid_argument);
}

// ----------------------------------------------------------------------
// Clock
// ----------------------------------------------------------------------

TEST(PolicyClock, PassModeEvictsColdInOrderAndSparesReferenced)
{
    policy::ClockPolicy p({});
    ASSERT_TRUE(p.interleavedSweep());
    p.beginPass(0);
    p.insert(makePageId(1, 0));
    p.insert(makePageId(1, 1));
    p.insert(makePageId(1, 2));
    p.touch(makePageId(1, 1)); // referenced -> survives the pass
    EXPECT_EQ(p.victim(), makePageId(1, 0));
    EXPECT_EQ(p.victim(), makePageId(1, 2));
    // The hand never wraps: the referenced page is not a victim even
    // though it is the only page left.
    EXPECT_EQ(p.victim(), std::nullopt);
    EXPECT_TRUE(p.contains(makePageId(1, 1)));
}

TEST(PolicyClock, BeginPassEmptiesTheRing)
{
    policy::ClockPolicy p({});
    p.beginPass(0);
    p.insert(makePageId(1, 0));
    p.insert(makePageId(1, 1));
    EXPECT_EQ(p.size(), 2u);
    p.beginPass(1);
    EXPECT_EQ(p.size(), 0u);
    EXPECT_FALSE(p.contains(makePageId(1, 0)));
    EXPECT_EQ(p.stats().passes, 2u);
}

TEST(PolicyClock, PassModeInsertsInAscendingOrderOnly)
{
    // The pass-mode ring is sorted by construction (clockPass feeds
    // pages in canonical order), which is what lets it find pages by
    // binary search instead of a map.
    policy::ClockPolicy p({});
    p.beginPass(0);
    p.insert(makePageId(1, 4));
    p.insert(makePageId(2, 0));
    EXPECT_THROW(p.insert(makePageId(1, 9)), std::logic_error);
    // A duplicate is ignored, wherever it sits in the ring.
    p.insert(makePageId(1, 4));
    p.insert(makePageId(2, 0));
    EXPECT_EQ(p.size(), 2u);
    EXPECT_EQ(p.stats().inserts, 2u);
    // A new pass starts the order afresh.
    p.beginPass(1);
    p.insert(makePageId(1, 0));
    EXPECT_EQ(p.size(), 1u);
}

TEST(PolicyClock, PassModeIgnoresAbsentPages)
{
    policy::ClockPolicy p({});
    p.beginPass(0);
    p.insert(makePageId(1, 2));
    p.insert(makePageId(1, 5));
    // Absent: below, between and above the ring.
    for (PageId absent :
         {makePageId(1, 0), makePageId(1, 3), makePageId(1, 9)}) {
        EXPECT_FALSE(p.contains(absent));
        p.touch(absent);
        p.remove(absent);
    }
    EXPECT_EQ(p.stats().touches, 0u);
    EXPECT_EQ(p.stats().removes, 0u);
    EXPECT_EQ(p.size(), 2u);
    // An evicted or removed page is absent too.
    p.remove(makePageId(1, 5));
    EXPECT_FALSE(p.contains(makePageId(1, 5)));
    p.remove(makePageId(1, 5));
    EXPECT_EQ(p.stats().removes, 1u);
    EXPECT_EQ(p.victim(), makePageId(1, 2));
    EXPECT_FALSE(p.contains(makePageId(1, 2)));
    p.touch(makePageId(1, 2));
    EXPECT_EQ(p.stats().touches, 0u);
    EXPECT_EQ(p.size(), 0u);
    EXPECT_EQ(p.victim(), std::nullopt);
}

TEST(PolicyClock, SecondChanceClearsRefBitsAndAlwaysFindsAVictim)
{
    PolicyParams pp;
    pp.clockSecondChance = true;
    policy::ClockPolicy p(pp);
    ASSERT_FALSE(p.interleavedSweep());
    p.insert(makePageId(1, 0));
    p.insert(makePageId(1, 1));
    p.insert(makePageId(1, 2));
    p.touch(makePageId(1, 0));
    p.touch(makePageId(1, 1));
    p.touch(makePageId(1, 2));
    // Every page referenced: the hand strips each ref bit on the
    // first lap and takes the first slot on the second.
    EXPECT_EQ(p.victim(), makePageId(1, 0));
    EXPECT_EQ(p.victim(), makePageId(1, 1));
    // A re-touched page earns its second chance again.
    p.touch(makePageId(1, 2));
    p.insert(makePageId(1, 3));
    EXPECT_EQ(p.victim(), makePageId(1, 3));
    EXPECT_TRUE(p.contains(makePageId(1, 2)));
}

// ----------------------------------------------------------------------
// Segmented LRU
// ----------------------------------------------------------------------

TEST(PolicySlru, PromoteOnTouchAndDemoteOnOverflow)
{
    PolicyParams pp;
    pp.capacityHint = 4;
    pp.slruProtectedShare = 0.5; // protectedCap = 2
    policy::SlruPolicy p(pp);
    ASSERT_EQ(p.protectedCap(), 2u);

    p.insert(makePageId(1, 1));
    p.insert(makePageId(1, 2));
    EXPECT_EQ(p.probationSize(), 2u);
    p.touch(makePageId(1, 1)); // promote
    p.touch(makePageId(1, 2)); // promote
    EXPECT_EQ(p.protectedSize(), 2u);
    EXPECT_EQ(p.probationSize(), 0u);

    p.insert(makePageId(1, 3));
    p.touch(makePageId(1, 3)); // promote 3; protected overflows
    EXPECT_EQ(p.protectedSize(), 2u);
    EXPECT_EQ(p.probationSize(), 1u); // LRU of protected (1) demoted
    EXPECT_EQ(p.stats().promotions, 3u);
    EXPECT_EQ(p.stats().demotions, 1u);

    // Victims drain probation before touching the protected segment.
    EXPECT_EQ(p.victim(), makePageId(1, 1));
    EXPECT_EQ(p.victim(), makePageId(1, 2)); // protected LRU
    EXPECT_EQ(p.victim(), makePageId(1, 3));
    EXPECT_EQ(p.victim(), std::nullopt);
}

TEST(PolicySlru, InvariantsHoldUnderRandomChurn)
{
    // Random access stream through the bounded cache harness: segment
    // sizes must always reconcile and never exceed their caps. Run
    // under asan/tsan this also shakes out list/iterator bugs.
    PolicyParams pp;
    pp.capacityHint = 16;
    auto owned = std::make_unique<policy::SlruPolicy>(pp);
    policy::SlruPolicy *slru = owned.get();
    policy::PolicyCache cache(std::move(owned), 16);
    sim::Random rng(7);
    for (int i = 0; i < 20000; ++i) {
        cache.access(makePageId(1, rng.below(64)));
        ASSERT_LE(slru->size(), 16u);
        ASSERT_LE(slru->protectedSize(), slru->protectedCap());
        ASSERT_EQ(slru->probationSize() + slru->protectedSize(),
                  slru->size());
    }
    EXPECT_EQ(cache.hits() + cache.misses(), 20000u);
    EXPECT_GT(slru->stats().promotions, 0u);
    EXPECT_GT(slru->stats().demotions, 0u);
}

// ----------------------------------------------------------------------
// 2Q
// ----------------------------------------------------------------------

TEST(PolicyTwoQ, A1inIsFifoAndGhostHitsPromoteToAm)
{
    PolicyParams pp;
    pp.capacityHint = 8; // kin = 2, kout = 4
    policy::TwoQPolicy p(pp);

    p.insert(makePageId(1, 1));
    p.insert(makePageId(1, 2));
    p.touch(makePageId(1, 1)); // touches do NOT reorder A1in
    EXPECT_EQ(p.victim(), makePageId(1, 1)); // still FIFO head
    EXPECT_EQ(p.ghostSize(), 1u);
    EXPECT_FALSE(p.contains(makePageId(1, 1)));

    // A reference while ghosted is the "second touch" signal: the
    // page re-enters resident directly in Am.
    p.insert(makePageId(1, 1));
    EXPECT_EQ(p.ghostHits(), 1u);
    EXPECT_EQ(p.amSize(), 1u);
    EXPECT_EQ(p.stats().promotions, 1u);

    // With A1in over kin, one-shot pages evict each other and the Am
    // resident survives.
    p.insert(makePageId(1, 3));
    p.insert(makePageId(1, 4)); // a1in = {4, 3, 2} > kin
    EXPECT_EQ(p.victim(), makePageId(1, 2));
    EXPECT_TRUE(p.contains(makePageId(1, 1)));
}

TEST(PolicyTwoQ, ScanLeavesAmResidentsAlone)
{
    PolicyParams pp;
    pp.capacityHint = 8;
    auto owned = std::make_unique<policy::TwoQPolicy>(pp);
    policy::TwoQPolicy *twoq = owned.get();
    policy::PolicyCache cache(std::move(owned), 8);

    // Warm two hot pages into Am: insert, push them out into the
    // ghost with just enough one-shot filler (more would trim them
    // off the bounded ghost too), then re-touch for the ghost hit.
    std::vector<PageId> hot = {makePageId(1, 100), makePageId(1, 101)};
    for (PageId h : hot)
        cache.access(h);
    for (std::uint64_t s = 0; s < 8; ++s)
        cache.access(makePageId(2, s));
    for (PageId h : hot)
        cache.access(h);
    ASSERT_GT(twoq->ghostHits(), 0u);
    ASSERT_GT(twoq->amSize(), 0u);

    // A long scan of one-shot pages must churn only A1in.
    for (std::uint64_t s = 0; s < 200; ++s)
        cache.access(makePageId(3, s));
    for (PageId h : hot)
        EXPECT_TRUE(twoq->contains(h));
}

// ----------------------------------------------------------------------
// WSClock
// ----------------------------------------------------------------------

TEST(PolicyWsClock, EvictsOnlyOutsideTheWorkingSetWindow)
{
    PolicyParams pp;
    pp.wsTau = 10;
    policy::WsClockPolicy p(pp);
    ASSERT_EQ(p.tau(), 10u);
    p.setNow(0);
    p.insert(makePageId(1, 1));
    p.insert(makePageId(1, 2));
    p.insert(makePageId(1, 3));
    p.touch(makePageId(1, 1)); // referenced
    p.setNow(20);
    // The hand clears page 1's ref bit (stamping last-use = 20) and
    // evicts page 2, the first unreferenced page older than tau.
    EXPECT_EQ(p.victim(), makePageId(1, 2));
    EXPECT_TRUE(p.contains(makePageId(1, 1)));
    // Page 1 is now inside the window; page 3 is not.
    EXPECT_EQ(p.victim(), makePageId(1, 3));
}

TEST(PolicyWsClock, FallsBackToOldestWhenAllInsideWindow)
{
    PolicyParams pp;
    pp.wsTau = 100;
    policy::WsClockPolicy p(pp);
    p.setNow(0);
    p.insert(makePageId(1, 1));
    p.setNow(5);
    p.insert(makePageId(1, 2));
    p.setNow(6);
    // Nothing is older than tau; the oldest last-use loses.
    EXPECT_EQ(p.victim(), makePageId(1, 1));
    EXPECT_EQ(p.size(), 1u);
}

// ----------------------------------------------------------------------
// Belady (offline optimum)
// ----------------------------------------------------------------------

TEST(PolicyBelady, MatchesHandComputedOptimalEvictionSequence)
{
    // The classic MIN worked example: pages 1..5, capacity 3.
    //   refs:      1 2 3 4 1 2 5 1 2 3
    //   optimal:   M M M M h h M h h M   -> 6 misses
    //   evictions: at ref 4 evict 3 (next use farthest), at ref 5
    //   evict 4 (never used again), at the final 3 evict 1 (all
    //   residents dead -> lowest PageId).
    std::vector<PageId> trace;
    for (std::uint64_t r : {1, 2, 3, 4, 1, 2, 5, 1, 2, 3})
        trace.push_back(makePageId(1, r));

    policy::BeladyPolicy b(trace);
    std::vector<PageId> evicted;
    std::uint64_t misses = 0;
    for (PageId p : trace) {
        if (b.contains(p)) {
            b.touch(p);
            continue;
        }
        ++misses;
        if (b.size() == 3) {
            auto v = b.victim();
            ASSERT_TRUE(v.has_value());
            evicted.push_back(*v);
        }
        b.insert(p);
    }
    EXPECT_EQ(misses, 6u);
    ASSERT_EQ(evicted.size(), 3u);
    EXPECT_EQ(evicted[0], makePageId(1, 3));
    EXPECT_EQ(evicted[1], makePageId(1, 4));
    EXPECT_EQ(evicted[2], makePageId(1, 1));
    EXPECT_EQ(b.position(), trace.size());
}

TEST(PolicyBelady, DeviatingFromTheRecordedTraceThrows)
{
    std::vector<PageId> trace = {makePageId(1, 1), makePageId(1, 2),
                                 makePageId(1, 3)};
    policy::BeladyPolicy b(trace);
    b.insert(makePageId(1, 1));
    EXPECT_THROW(b.insert(makePageId(1, 3)), std::logic_error);
}

TEST(PolicyBelady, LowerBoundsEveryOnlinePolicyOnARealTrace)
{
    // A theorem, not a tolerance: on a shared trace at equal capacity
    // MIN's miss count is <= any demand-paging policy's.
    apps::RefGenParams gp;
    gp.seed = 11;
    apps::RefGen gen(apps::RefWorkload::Scan, gp);
    std::vector<PageId> trace;
    while (trace.size() < 20000)
        gen.nextTxn(trace);
    double opt = policy::replayMissRate(Kind::Belady, trace, 128);
    for (Kind k : {Kind::Clock, Kind::Slru, Kind::TwoQ, Kind::WsClock})
        EXPECT_LE(opt, policy::replayMissRate(k, trace, 128))
            << policy::kindName(k);
    // And the scan-resistant pair beats plain clock here.
    EXPECT_LT(policy::replayMissRate(Kind::Slru, trace, 128),
              policy::replayMissRate(Kind::Clock, trace, 128));
    EXPECT_LT(policy::replayMissRate(Kind::TwoQ, trace, 128),
              policy::replayMissRate(Kind::Clock, trace, 128));
}

// ----------------------------------------------------------------------
// PolicyCache harness
// ----------------------------------------------------------------------

TEST(PolicyCacheSim, AccountsHitsMissesAndEvictions)
{
    PolicyParams pp;
    pp.clockSecondChance = true;
    pp.capacityHint = 4;
    policy::PolicyCache cache(policy::make(Kind::Clock, pp), 4);
    for (std::uint64_t p = 0; p < 8; ++p)
        cache.access(makePageId(1, p)); // 8 cold misses
    EXPECT_EQ(cache.misses(), 8u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.evictions(), 4u); // misses - residents
    EXPECT_EQ(cache.policy().size(), 4u);
    EXPECT_TRUE(cache.access(makePageId(1, 7))); // still resident
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.accesses(), 9u);
    EXPECT_DOUBLE_EQ(cache.missRate(), 8.0 / 9.0);
}

TEST(PolicyStudy, SameParamsReproduceBitIdenticalResults)
{
    apps::PolicyStudyParams p;
    p.workload = apps::RefWorkload::Zipf;
    p.kind = Kind::Slru;
    p.cacheFrames = 64;
    p.durationSec = 2;
    apps::PolicyStudyResult a = apps::runPolicyStudy(p);
    apps::PolicyStudyResult b = apps::runPolicyStudy(p);
    EXPECT_GT(a.txns, 0u);
    EXPECT_EQ(a.txns, b.txns);
    EXPECT_EQ(a.refs, b.refs);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.avgMs, b.avgMs);   // bit-equal, not approximately
    EXPECT_EQ(a.p99Ms, b.p99Ms);
    EXPECT_EQ(a.worstMs, b.worstMs);
}

// ----------------------------------------------------------------------
// Differential: Clock behind the interface vs the legacy clockPass
// ----------------------------------------------------------------------

/**
 * A line-for-line replica of the pre-refactor hard-wired
 * DefaultSegmentManager::clockPass, driven from outside the manager:
 * snapshot each managed segment into referenced/cold skipping pinned
 * pages, batch-clear contiguous referenced runs, reclaim cold pages
 * in ascending order, and stop scanning segments once the target is
 * met (checked AFTER each segment, so target 0 arms only the first).
 */
sim::Task<std::uint64_t>
legacyClockPass(mgr::DefaultSegmentManager &mgr, kernel::Kernel &k,
                std::vector<kernel::SegmentId> segs,
                std::uint64_t target)
{
    std::uint64_t reclaimed = 0;
    for (kernel::SegmentId sid : segs) {
        if (!k.segmentExists(sid))
            continue;
        std::vector<kernel::PageIndex> referenced, cold;
        for (const auto &[page, entry] : k.segment(sid).pages()) {
            if (entry.flags & flag::kPinned)
                continue;
            if (entry.flags & flag::kReferenced)
                referenced.push_back(page);
            else
                cold.push_back(page);
        }
        std::size_t i = 0;
        while (i < referenced.size()) {
            std::size_t j = i;
            while (j + 1 < referenced.size() &&
                   referenced[j + 1] == referenced[j] + 1) {
                ++j;
            }
            co_await k.modifyPageFlags(
                sid, referenced[i], j - i + 1, 0,
                flag::kReferenced | flag::kReadable | flag::kWritable);
            i = j + 1;
        }
        for (kernel::PageIndex p : cold) {
            if (reclaimed >= target)
                break;
            co_await mgr.reclaimPage(k, sid, p);
            ++reclaimed;
        }
        if (reclaimed >= target)
            break;
    }
    co_return reclaimed;
}

class PolicyDifferentialTest : public ::testing::Test
{
  protected:
    struct Stack
    {
        Stack()
            : kern(s, machine()),
              disk(s, machine().diskLatency,
                   machine().diskBandwidthMBps),
              server(s, disk, usec(200)), spcm(kern, std::nullopt),
              ucds(kern, &spcm, server, reg), proc("app", 1)
        {
            ucds.initNow(2048, 256);
        }

        static hw::MachineConfig
        machine()
        {
            hw::MachineConfig m = hw::decstation5000_200();
            m.memoryBytes = 16 << 20;
            return m;
        }

        void
        setup()
        {
            h1 = runTask(s, ucds.createAnonymous("h1", 64, 1));
            h2 = runTask(s, ucds.createAnonymous("h2", 64, 1));
            for (kernel::PageIndex p = 0; p < 24; ++p)
                runTask(s, kern.touchSegment(
                                proc, h1, p,
                                kernel::AccessType::Write));
            for (kernel::PageIndex p = 0; p < 16; ++p)
                runTask(s, kern.touchSegment(
                                proc, h2, p,
                                kernel::AccessType::Write));
            kern.modifyPageFlagsNow(h1, 3, 1, flag::kPinned, 0);
        }

        void
        retouch()
        {
            for (kernel::PageIndex p = 0; p < 8; ++p)
                runTask(s, kern.touchSegment(
                                proc, h1, p,
                                kernel::AccessType::Read));
            for (kernel::PageIndex p = 0; p < 4; ++p)
                runTask(s, kern.touchSegment(
                                proc, h2, p,
                                kernel::AccessType::Read));
        }

        /// Kernel-observable state: (segment, page, flags) triples.
        std::vector<std::tuple<kernel::SegmentId, kernel::PageIndex,
                               std::uint64_t>>
        state()
        {
            std::vector<std::tuple<kernel::SegmentId,
                                   kernel::PageIndex, std::uint64_t>>
                out;
            for (kernel::SegmentId sid : {h1, h2})
                for (const auto &[page, e] :
                     kern.segment(sid).pages())
                    out.emplace_back(
                        sid, page,
                        static_cast<std::uint64_t>(e.flags));
            return out;
        }

        sim::Simulation s;
        kernel::Kernel kern;
        hw::Disk disk;
        uio::FileServer server;
        uio::FileRegistry reg;
        mgr::SystemPageCacheManager spcm;
        mgr::DefaultSegmentManager ucds;
        kernel::Process proc;
        kernel::SegmentId h1 = 0, h2 = 0;
    };
};

TEST_F(PolicyDifferentialTest, ClockBehindInterfaceMatchesLegacyPass)
{
    Stack a; // policy-driven clockPass (Clock is the config default)
    Stack b; // hand-replicated legacy pass
    a.setup();
    b.setup();
    ASSERT_EQ(a.ucds.policyName(), "clock");
    std::vector<kernel::SegmentId> segs = {b.h1, b.h2};

    // Pass 1, target 0: arms the sampler on the first managed
    // segment only (the legacy early-exit quirk, kept bit-for-bit).
    EXPECT_EQ(runTask(a.s, a.ucds.clockPass(0)),
              runTask(b.s, legacyClockPass(b.ucds, b.kern, segs, 0)));
    EXPECT_EQ(a.state(), b.state());
    EXPECT_EQ(a.s.now(), b.s.now());

    a.retouch();
    b.retouch();

    // Pass 2, partial target: interleaved eviction stops mid-segment.
    EXPECT_EQ(runTask(a.s, a.ucds.clockPass(12)),
              runTask(b.s, legacyClockPass(b.ucds, b.kern, segs, 12)));
    EXPECT_EQ(a.state(), b.state());
    EXPECT_EQ(a.s.now(), b.s.now());

    // Pass 3, large target: drains every cold page in both stacks.
    std::uint64_t ra = runTask(a.s, a.ucds.clockPass(100));
    std::uint64_t rb =
        runTask(b.s, legacyClockPass(b.ucds, b.kern, segs, 100));
    EXPECT_EQ(ra, rb);
    EXPECT_GT(ra, 0u);
    EXPECT_EQ(a.state(), b.state());
    EXPECT_EQ(a.s.now(), b.s.now());
    // The pinned page outlives every pass.
    EXPECT_TRUE(a.kern.segment(a.h1).findPage(3));
}

} // namespace
} // namespace vpp
