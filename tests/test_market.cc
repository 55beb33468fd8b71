/**
 * @file
 * Tests for the multi-tenant memory-market scale machinery: the
 * SPCM's shard frame ranges, batched auction rounds, admission control
 * and the fairness/starvation counters. The single-server defaults are
 * pinned by test_managers.cc; everything here runs with the SpcmParams
 * scale knobs on and checks the contracts those knobs add.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/kernel.h"
#include "inject/inject.h"
#include "managers/generic.h"
#include "managers/market.h"
#include "managers/spcm.h"

namespace vpp::mgr {
namespace {

using kernel::runTask;
using sim::msec;
using sim::usec;

hw::MachineConfig
smallMachine()
{
    hw::MachineConfig m = hw::decstation5000_200();
    m.memoryBytes = 16 << 20; // 4096 frames
    return m;
}

SpcmParams
shardedParams(std::uint32_t shards = 4)
{
    SpcmParams sp;
    sp.shards = shards;
    return sp;
}

SpcmParams
roundParams(std::uint32_t shards = 4)
{
    SpcmParams sp = shardedParams(shards);
    sp.batchedRounds = true;
    return sp;
}

std::vector<kernel::PageIndex>
slotRange(kernel::PageIndex first, std::uint64_t n)
{
    std::vector<kernel::PageIndex> slots;
    slots.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i)
        slots.push_back(first + i);
    return slots;
}

std::uint64_t
shardRangeTotal(const SystemPageCacheManager &spcm)
{
    std::uint64_t total = 0;
    for (std::uint32_t s = 0; s <= spcm.params().shards; ++s)
        total += spcm.shardFreeFrames(s);
    return total;
}

// ----------------------------------------------------------------------
// Shard frame ranges
// ----------------------------------------------------------------------

TEST(MarketSharding, ListsPartitionTheFreePool)
{
    sim::Simulation s;
    kernel::Kernel kern(s, smallMachine());
    SystemPageCacheManager spcm(kern, std::nullopt, shardedParams());

    EXPECT_EQ(spcm.params().shards, 4u);
    EXPECT_EQ(shardRangeTotal(spcm), spcm.freeFrames());
    // Every private shard holds something: the pool splits evenly.
    for (std::uint32_t sh = 0; sh < spcm.params().shards; ++sh)
        EXPECT_GT(spcm.shardFreeFrames(sh), 0u);
}

TEST(MarketSharding, GrantAndReturnKeepListsInStep)
{
    sim::Simulation s;
    kernel::Kernel kern(s, smallMachine());
    SystemPageCacheManager spcm(kern, std::nullopt, shardedParams());
    ClientId c = spcm.registerClient("app", 1, 0.0);
    kernel::SegmentId dst = kern.createSegmentNow("dst", 4096, 16, 1);

    std::uint64_t free0 = spcm.freeFrames();
    EXPECT_EQ(runTask(s, spcm.requestPages(c, dst, slotRange(0, 8))),
              8u);
    EXPECT_EQ(spcm.freeFrames(), free0 - 8);
    EXPECT_EQ(shardRangeTotal(spcm), spcm.freeFrames());

    EXPECT_EQ(runTask(s, spcm.returnPages(c, dst, slotRange(2, 4))),
              4u);
    EXPECT_EQ(spcm.freeFrames(), free0 - 4);
    EXPECT_EQ(shardRangeTotal(spcm), spcm.freeFrames());

    std::string why;
    EXPECT_TRUE(kern.checkFrameInvariant(&why)) << why;
}

TEST(MarketSharding, ShortfallStealsFromSiblingShards)
{
    // A single client may legitimately want more frames than its home
    // shard plus the shared pool hold; allocation must drain sibling
    // shards rather than refuse while free frames exist.
    sim::Simulation s;
    kernel::Kernel kern(s, smallMachine());
    SystemPageCacheManager spcm(kern, std::nullopt, shardedParams());
    ClientId c = spcm.registerClient("greedy", 1, 0.0);
    std::uint64_t all = spcm.freeFrames();
    kernel::SegmentId dst =
        kern.createSegmentNow("dst", 4096, all + 1, 1);

    EXPECT_EQ(runTask(s, spcm.requestPages(
                             c, dst, slotRange(0, all))),
              all);
    EXPECT_EQ(spcm.freeFrames(), 0u);
    EXPECT_EQ(shardRangeTotal(spcm), 0u);
}

TEST(MarketSharding, ConstrainedPicksMatchLegacySelection)
{
    // Same color constraint, sharded vs legacy: identical frames.
    sim::Simulation s1, s2;
    kernel::Kernel k1(s1, smallMachine()), k2(s2, smallMachine());
    SystemPageCacheManager legacy(k1, std::nullopt);
    SystemPageCacheManager sharded(k2, std::nullopt, shardedParams());
    ClientId c1 = legacy.registerClient("a", 1, 0.0);
    ClientId c2 = sharded.registerClient("a", 1, 0.0);
    kernel::SegmentId d1 = k1.createSegmentNow("d", 4096, 8, 1);
    kernel::SegmentId d2 = k2.createSegmentNow("d", 4096, 8, 1);

    auto cons = Constraint::pageColor(5, 16);
    EXPECT_EQ(runTask(s1, legacy.requestPages(c1, d1, slotRange(0, 4),
                                              cons)),
              4u);
    EXPECT_EQ(runTask(s2, sharded.requestPages(c2, d2, slotRange(0, 4),
                                               cons)),
              4u);
    auto a1 = k1.getPageAttributesNow(d1, 0, 4);
    auto a2 = k2.getPageAttributesNow(d2, 0, 4);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(a1[i].frame, a2[i].frame);
    EXPECT_EQ(shardRangeTotal(sharded), sharded.freeFrames());
}

TEST(MarketSharding, UnconstrainedPicksFollowRangeOrder)
{
    // 32 frames. One shard: a grant takes the lowest free frames,
    // the physical segment's scan order. Four shards: a quarter (8)
    // is shared, the other 24 split into homes of 6; client 1 takes
    // its home range, then the shared range, then siblings 2, 3, 0.
    hw::MachineConfig m = smallMachine();
    m.memoryBytes = 32 * 4096;
    auto frames_of = [](kernel::Kernel &k, kernel::SegmentId seg,
                        std::uint64_t n) {
        std::vector<hw::FrameId> out;
        for (const auto &a : k.getPageAttributesNow(seg, 0, n))
            out.push_back(a.frame);
        return out;
    };

    {
        sim::Simulation s;
        kernel::Kernel kern(s, m);
        SystemPageCacheManager spcm(kern, std::nullopt);
        ClientId c = spcm.registerClient("app", 1, 0.0);
        kernel::SegmentId a = kern.createSegmentNow("a", 4096, 8, 1);
        kernel::SegmentId b = kern.createSegmentNow("b", 4096, 3, 1);
        ASSERT_EQ(runTask(s, spcm.requestPages(c, a, slotRange(0, 8))),
                  8u);
        ASSERT_EQ(runTask(s, spcm.returnPages(c, a, {5, 2})), 2u);
        ASSERT_EQ(runTask(s, spcm.requestPages(c, b, slotRange(0, 3))),
                  3u);
        EXPECT_EQ(frames_of(kern, b, 3),
                  (std::vector<hw::FrameId>{2, 5, 8}));
    }

    sim::Simulation s;
    kernel::Kernel kern(s, m);
    SystemPageCacheManager spcm(kern, std::nullopt, shardedParams());
    spcm.registerClient("other", 1, 0.0);
    ClientId c = spcm.registerClient("app", 2, 0.0);
    kernel::SegmentId dst = kern.createSegmentNow("dst", 4096, 32, 2);
    ASSERT_EQ(runTask(s, spcm.requestPages(c, dst, slotRange(0, 32))),
              32u);
    std::vector<hw::FrameId> want;
    auto range = [&want](hw::FrameId lo, hw::FrameId hi) {
        for (hw::FrameId f = lo; f < hi; ++f)
            want.push_back(f);
    };
    range(6, 12);  // home shard 1
    range(24, 32); // shared
    range(12, 18); // sibling 2
    range(18, 24); // sibling 3
    range(0, 6);   // sibling 0
    EXPECT_EQ(frames_of(kern, dst, 32), want);
}

TEST(MarketSharding, FrameSwapBehindTheSpcmKeepsPicksValid)
{
    // The kernel takes four free frames out of the physical segment
    // and a destroyed segment sweeps four others back, both behind the
    // SPCM: the free count ends where it started, but not the set of
    // free frames. The next grant must pick only frames that are free.
    sim::Simulation s;
    kernel::Kernel kern(s, smallMachine());
    SystemPageCacheManager spcm(kern, std::nullopt, shardedParams());
    ClientId c = spcm.registerClient("app", 1, 0.0);
    kernel::SegmentId granted = kern.createSegmentNow("g", 4096, 4, 1);
    kernel::SegmentId taken = kern.createSegmentNow("t", 4096, 4, 1);
    kernel::SegmentId dst = kern.createSegmentNow("d", 4096, 4, 1);

    ASSERT_EQ(runTask(s, spcm.requestPages(c, granted, slotRange(0, 4))),
              4u);
    kern.migratePagesNow(kernel::kPhysSegment, taken, 4, 0, 4,
                         kernel::flag::kReadable, 0);
    runTask(s, kern.destroySegment(granted));

    EXPECT_EQ(runTask(s, spcm.requestPages(c, dst, slotRange(0, 4))),
              4u);
    std::string why;
    EXPECT_TRUE(kern.checkFrameInvariant(&why)) << why;
}

TEST(MarketSharding, CrashedManagerFramesResyncToShardLists)
{
    // Failover path: when a manager crashes, the kernel unilaterally
    // reclaims its clean frames straight into the physical segment,
    // bypassing the SPCM entirely. Each recovered frame must count in
    // its range and be allocatable at the next pick.
    sim::Simulation s;
    kernel::Kernel kern(s, smallMachine());
    SystemPageCacheManager spcm(kern, std::nullopt, shardedParams());
    GenericSegmentManager crasher(
        kern, "crasher", hw::ManagerMode::SameProcess, &spcm, 1);
    GenericSegmentManager fallback(
        kern, "fallback", hw::ManagerMode::SameProcess, &spcm,
        kernel::kSystemUser);
    crasher.initNow(64, 32);
    fallback.initNow(64, 32);
    kernel::SegmentId seg =
        kern.createSegmentNow("app", 4096, 64, 1, &crasher);
    kern.setDefaultManager(&fallback);
    kernel::ResiliencePolicy pol;
    pol.enabled = true;
    pol.faultDeadline = msec(50);
    pol.maxRedeliveries = 1;
    pol.retryBackoff = usec(100);
    pol.failover = true;
    kern.setResiliencePolicy(pol);
    kernel::Process proc("p", 1);

    // Build clean, reclaimable state before the crash campaign.
    for (kernel::PageIndex p = 0; p < 4; ++p)
        runTask(s, kern.touchSegment(proc, seg, p,
                                     kernel::AccessType::Read));
    std::uint64_t free_before = spcm.freeFrames();
    EXPECT_EQ(shardRangeTotal(spcm), free_before);

    inject::Config c;
    c.enabled = true;
    c.seed = 3;
    c.manager.crashProb = 1.0;
    inject::Engine eng(c);
    kern.setInjector(&eng);

    runTask(s, kern.touchSegment(proc, seg, 10,
                                 kernel::AccessType::Read));
    EXPECT_EQ(kern.stats().failovers, 1u);
    EXPECT_EQ(kern.stats().framesReclaimed, 4u);

    // The ranges account for every frame the kernel took back behind
    // the SPCM's back.
    EXPECT_EQ(spcm.freeFrames(), free_before + 4);
    EXPECT_EQ(shardRangeTotal(spcm), free_before + 4);

    // And the recovered frames are allocatable again: drain the pool
    // dry through the sharded pick path.
    ClientId probe = spcm.registerClient("probe", 2, 0.0);
    std::uint64_t all = spcm.freeFrames();
    kernel::SegmentId dst =
        kern.createSegmentNow("dst", 4096, all + 1, 2);
    EXPECT_EQ(runTask(s, spcm.requestPages(probe, dst,
                                           slotRange(0, all))),
              all);
    EXPECT_EQ(shardRangeTotal(spcm), 0u);
    std::string why;
    EXPECT_TRUE(kern.checkFrameInvariant(&why)) << why;
}

// ----------------------------------------------------------------------
// Batched auction rounds
// ----------------------------------------------------------------------

TEST(MarketRounds, SameInstantBidsShareOneCrossing)
{
    sim::Simulation s;
    kernel::Kernel kern(s, smallMachine());
    SystemPageCacheManager spcm(kern, std::nullopt, roundParams());

    constexpr int kTenants = 3;
    std::vector<ClientId> ids;
    std::vector<kernel::SegmentId> segs;
    std::vector<std::uint64_t> got(kTenants, 0);
    for (int t = 0; t < kTenants; ++t) {
        ids.push_back(spcm.registerClient("t" + std::to_string(t),
                                          10 + t, 0.0));
        segs.push_back(kern.createSegmentNow(
            "s" + std::to_string(t), 4096, 8, 10 + t));
    }
    for (int t = 0; t < kTenants; ++t) {
        s.spawn([](SystemPageCacheManager *m, ClientId c,
                   kernel::SegmentId seg,
                   std::uint64_t *out) -> sim::Task<> {
            *out = co_await m->requestPages(c, seg, slotRange(0, 4));
        }(&spcm, ids[t], segs[t], &got[t]));
    }
    s.run();

    for (int t = 0; t < kTenants; ++t)
        EXPECT_EQ(got[t], 4u) << "tenant " << t;
    EXPECT_EQ(spcm.marketRounds(), 1u);
    EXPECT_EQ(spcm.roundBids(), 3u);
    EXPECT_EQ(spcm.roundCrossings(), 1u);
}

TEST(MarketRounds, OffersFundSameRoundBids)
{
    // An exhausted pool plus a same-instant return: the round serves
    // the offer first, so the bid is funded by frames that entered the
    // pool in its own round.
    sim::Simulation s;
    kernel::Kernel kern(s, smallMachine());
    SystemPageCacheManager spcm(kern, std::nullopt, roundParams());
    ClientId holder = spcm.registerClient("holder", 1, 0.0);
    ClientId bidder = spcm.registerClient("bidder", 2, 0.0);
    std::uint64_t all = spcm.freeFrames();
    kernel::SegmentId hseg =
        kern.createSegmentNow("h", 4096, all + 1, 1);
    kernel::SegmentId bseg = kern.createSegmentNow("b", 4096, 8, 2);
    EXPECT_EQ(spcm.grantNow(holder, hseg, slotRange(0, all)), all);
    EXPECT_EQ(spcm.freeFrames(), 0u);

    std::uint64_t got = 0;
    s.spawn([](SystemPageCacheManager *m, ClientId c,
               kernel::SegmentId seg,
               std::uint64_t *out) -> sim::Task<> {
        *out = co_await m->requestPages(c, seg, slotRange(0, 4));
    }(&spcm, bidder, bseg, &got));
    s.spawn([](SystemPageCacheManager *m, ClientId c,
               kernel::SegmentId seg) -> sim::Task<> {
        co_await m->returnPages(c, seg, slotRange(0, 4));
    }(&spcm, holder, hseg));
    s.run();

    EXPECT_EQ(got, 4u);
    EXPECT_EQ(spcm.marketRounds(), 1u);
    EXPECT_EQ(spcm.roundOffers(), 1u);
    std::string why;
    EXPECT_TRUE(kern.checkFrameInvariant(&why)) << why;
}

TEST(MarketRounds, RoundsOffMatchesRoundsOnCounts)
{
    // The round path must be an IPC/timing optimisation only: the
    // same workload grants and returns exactly the same frame counts
    // with and without batched rounds.
    auto run_counts = [](SpcmParams sp, std::uint64_t out[3]) {
        sim::Simulation s;
        kernel::Kernel kern(s, smallMachine());
        SystemPageCacheManager spcm(kern, std::nullopt, sp);
        ClientId c = spcm.registerClient("app", 1, 0.0);
        kernel::SegmentId dst =
            kern.createSegmentNow("dst", 4096, 32, 1);
        out[0] = runTask(s, spcm.requestPages(c, dst,
                                              slotRange(0, 8)));
        out[1] = runTask(s, spcm.returnPages(c, dst,
                                             slotRange(0, 4)));
        out[2] = runTask(s, spcm.requestPages(c, dst,
                                              slotRange(8, 8)));
    };
    std::uint64_t legacy[3], rounds[3];
    run_counts(SpcmParams{}, legacy);
    run_counts(roundParams(), rounds);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(legacy[i], rounds[i]) << "step " << i;
}

// ----------------------------------------------------------------------
// Admission control and starvation accounting
// ----------------------------------------------------------------------

TEST(MarketAdmission, NeverFundedBidAgesOutWithoutDeadlock)
{
    // A pauper with no income and no balance in a contended market:
    // its bids can never be funded. Admission control must answer
    // them (0) after the deadline instead of parking forever, and the
    // starvation counters must record the growing unserved streak.
    sim::Simulation s;
    kernel::Kernel kern(s, smallMachine());
    SpcmParams sp = roundParams();
    sp.admissionMaxWaiters = 8;
    sp.admissionMaxWait = msec(1);
    SystemPageCacheManager spcm(kern, MarketParams{}, sp);
    ClientId pauper = spcm.registerClient("pauper", 1, 0.0);
    kernel::SegmentId dst = kern.createSegmentNow("dst", 4096, 16, 1);

    EXPECT_EQ(runTask(s, spcm.requestPages(pauper, dst,
                                           slotRange(0, 4))),
              0u);
    EXPECT_GE(spcm.bidsWaited(), 1u);
    EXPECT_GE(spcm.bidsRejected(), 1u);
    // Each admission retry re-runs the bid through a round; every
    // unfunded answer extends the unserved streak.
    std::uint64_t unserved0 = spcm.tenantStats(pauper).bidsUnserved;
    EXPECT_GE(unserved0, 1u);

    // A later bid extends the unserved streak; the recorded worst
    // starvation age grows past the gap between the bids.
    s.schedule(s.now() + msec(5), [] {});
    s.run();
    EXPECT_EQ(runTask(s, spcm.requestPages(pauper, dst,
                                           slotRange(4, 4))),
              0u);
    EXPECT_GT(spcm.tenantStats(pauper).bidsUnserved, unserved0);
    EXPECT_GT(spcm.maxStarvationSeen(), msec(4));
    EXPECT_TRUE(spcm.tenantStats(pauper).starving);
}

TEST(MarketAdmission, WaiterCapBoundsTheQueue)
{
    // More starved bids than admissionMaxWaiters: the overflow is
    // answered 0 immediately rather than parked, so the wait queue
    // cannot grow without bound.
    sim::Simulation s;
    kernel::Kernel kern(s, smallMachine());
    SpcmParams sp = roundParams();
    sp.admissionMaxWaiters = 2;
    sp.admissionMaxWait = msec(1);
    SystemPageCacheManager spcm(kern, MarketParams{}, sp);

    constexpr int kTenants = 6;
    std::vector<ClientId> ids;
    std::vector<kernel::SegmentId> segs;
    std::vector<std::uint64_t> got(kTenants, 7);
    for (int t = 0; t < kTenants; ++t) {
        ids.push_back(spcm.registerClient("t" + std::to_string(t),
                                          10 + t, 0.0));
        segs.push_back(kern.createSegmentNow(
            "s" + std::to_string(t), 4096, 8, 10 + t));
    }
    for (int t = 0; t < kTenants; ++t) {
        s.spawn([](SystemPageCacheManager *m, ClientId c,
                   kernel::SegmentId seg,
                   std::uint64_t *out) -> sim::Task<> {
            *out = co_await m->requestPages(c, seg, slotRange(0, 4));
        }(&spcm, ids[t], segs[t], &got[t]));
    }
    s.run();

    for (int t = 0; t < kTenants; ++t)
        EXPECT_EQ(got[t], 0u) << "tenant " << t;
    // The instantaneous queue is capped at 2, so at least 4 of the 6
    // same-instant bids were turned away rather than parked. (Total
    // bids-parked-over-time can exceed the cap: as waiters age out the
    // queue refills — that is the point of bounding it.)
    EXPECT_GE(spcm.bidsRejected(), static_cast<std::uint64_t>(
                                       kTenants - 2));
    EXPECT_GE(spcm.bidsWaited(), 1u);
}

// ----------------------------------------------------------------------
// Reclaim storms against the sharded pool
// ----------------------------------------------------------------------

TEST(MarketStorm, ExhaustedShardListsRefillFromStormReclaim)
{
    // Free-list exhaustion during a reclaim storm: every frame is
    // held when the storm hits, the swept client sheds, and the
    // sharded pick finds the shed frames for the blocked grant.
    sim::Simulation s;
    kernel::Kernel kern(s, smallMachine());
    SystemPageCacheManager spcm(kern, std::nullopt, shardedParams());
    GenericSegmentManager hoarder(
        kern, "hoarder", hw::ManagerMode::SameProcess, &spcm, 1);
    std::uint64_t all = spcm.freeFrames();
    hoarder.initNow(all, all);
    EXPECT_EQ(spcm.freeFrames(), 0u);
    EXPECT_EQ(shardRangeTotal(spcm), 0u);

    inject::Config c;
    c.enabled = true;
    c.seed = 91;
    c.pressure.stormProb = 1.0;
    c.pressure.stormFrames = 8;
    inject::Engine eng(c);
    spcm.setInjector(&eng);

    ClientId probe = spcm.registerClient("probe", 2, 0.0);
    kernel::SegmentId dst = kern.createSegmentNow("dst", 4096, 8, 2);
    std::uint64_t got =
        runTask(s, spcm.requestPages(probe, dst, slotRange(0, 4)));

    EXPECT_EQ(got, 4u);
    EXPECT_EQ(spcm.stormsTriggered(), 1u);
    EXPECT_EQ(shardRangeTotal(spcm), spcm.freeFrames());
    std::string why;
    EXPECT_TRUE(kern.checkFrameInvariant(&why)) << why;
}

TEST(MarketStorm, StormClientCapSweepsRoundRobin)
{
    // With stormClients = 1 each storm sweeps exactly one client,
    // advancing round-robin, instead of the whole herd.
    sim::Simulation s;
    kernel::Kernel kern(s, smallMachine());
    SystemPageCacheManager spcm(kern, std::nullopt);
    GenericSegmentManager h1(
        kern, "h1", hw::ManagerMode::SameProcess, &spcm, 1);
    GenericSegmentManager h2(
        kern, "h2", hw::ManagerMode::SameProcess, &spcm, 2);
    h1.initNow(64, 32);
    h2.initNow(64, 32);

    inject::Config c;
    c.enabled = true;
    c.seed = 7;
    c.pressure.stormProb = 1.0;
    c.pressure.stormFrames = 8;
    c.pressure.stormClients = 1;
    inject::Engine eng(c);
    spcm.setInjector(&eng);

    ClientId probe = spcm.registerClient("probe", 3, 0.0);
    kernel::SegmentId dst = kern.createSegmentNow("dst", 4096, 16, 3);
    runTask(s, spcm.requestPages(probe, dst, slotRange(0, 1)));
    runTask(s, spcm.requestPages(probe, dst, slotRange(1, 1)));

    EXPECT_EQ(spcm.stormsTriggered(), 2u);
    // Two storms, one client each, round robin: both hoarders have
    // shed once (8 frames each), not one of them twice.
    EXPECT_EQ(h1.freePages(), 24u);
    EXPECT_EQ(h2.freePages(), 24u);
}

} // namespace
} // namespace vpp::mgr
