/**
 * @file
 * Tests for the manager stack: memory market, SPCM, generic segment
 * manager and the default (UCDS) manager's clock algorithm.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/kernel.h"
#include "managers/default_mgr.h"
#include "managers/generic.h"
#include "managers/market.h"
#include "managers/spcm.h"
#include "sim/mem_accounting.h"
#include "uio/block_io.h"
#include "uio/file_server.h"

namespace vpp::mgr {
namespace {

using kernel::kSystemUser;
using kernel::runTask;
using sim::msec;
using sim::sec;
using sim::usec;
namespace flag = kernel::flag;

hw::MachineConfig
smallMachine()
{
    hw::MachineConfig m = hw::decstation5000_200();
    m.memoryBytes = 16 << 20; // 4096 frames
    return m;
}

// ----------------------------------------------------------------------
// MemoryMarket
// ----------------------------------------------------------------------

TEST(MemoryMarket, IncomeAccruesOverTime)
{
    sim::Simulation s;
    MarketParams p;
    p.savingsTaxPerSec = 0.0;
    MemoryMarket m(s, p);
    DramAccount a;
    a.incomeRate = 10.0;
    s.schedule(sec(5), [] {});
    s.run();
    m.settle(a, false);
    EXPECT_NEAR(a.balance, 50.0, 1e-9);
    EXPECT_NEAR(a.totalIncome, 50.0, 1e-9);
}

TEST(MemoryMarket, HoldingChargedWhenContended)
{
    sim::Simulation s;
    MarketParams p;
    p.chargePerMBSec = 2.0;
    p.savingsTaxPerSec = 0.0;
    MemoryMarket m(s, p);
    DramAccount a;
    a.balance = 100.0;
    a.bytesHeld = 4 << 20; // 4 MB at 2 drams/MB-s = 8 drams/s
    s.schedule(sec(5), [] {});
    s.run();
    m.settle(a, true);
    EXPECT_NEAR(a.balance, 100.0 - 40.0, 1e-9);
    EXPECT_NEAR(a.totalMemoryCharge, 40.0, 1e-9);
}

TEST(MemoryMarket, HoldingFreeWhenUncontended)
{
    sim::Simulation s;
    MarketParams p;
    p.savingsTaxPerSec = 0.0;
    MemoryMarket m(s, p);
    DramAccount a;
    a.balance = 100.0;
    a.bytesHeld = 4 << 20;
    s.schedule(sec(5), [] {});
    s.run();
    m.settle(a, false);
    EXPECT_NEAR(a.balance, 100.0, 1e-9);
}

TEST(MemoryMarket, SavingsTaxErodesHoards)
{
    sim::Simulation s;
    MarketParams p;
    p.savingsTaxPerSec = 0.1;
    MemoryMarket m(s, p);
    DramAccount a;
    a.balance = 100.0;
    s.schedule(sec(1), [] {});
    s.run();
    m.settle(a, false);
    EXPECT_NEAR(a.balance, 90.0, 1e-9);
    EXPECT_NEAR(a.totalTax, 10.0, 1e-9);
}

TEST(MemoryMarket, IoCharge)
{
    sim::Simulation s;
    MarketParams p;
    p.ioChargePerMB = 0.5;
    MemoryMarket m(s, p);
    DramAccount a;
    a.balance = 10.0;
    m.chargeIo(a, 4 << 20);
    EXPECT_NEAR(a.balance, 8.0, 1e-9);
}

TEST(MemoryMarket, AffordableBytesScalesWithIncome)
{
    sim::Simulation s;
    MarketParams p;
    p.chargePerMBSec = 1.0;
    p.grantHorizonSec = 1.0;
    MemoryMarket m(s, p);
    DramAccount a;
    a.incomeRate = 8.0; // sustains 8 MB forever
    a.balance = 0.0;
    EXPECT_EQ(m.affordableBytes(a), 8u << 20);
    a.balance = 4.0; // plus 4 MB for the horizon second
    EXPECT_EQ(m.affordableBytes(a), 12u << 20);
    a.balance = -100.0;
    EXPECT_EQ(m.affordableBytes(a), 0u);
}

TEST(MemoryMarket, RunwayComputation)
{
    sim::Simulation s;
    MarketParams p;
    p.chargePerMBSec = 1.0;
    MemoryMarket m(s, p);
    DramAccount a;
    a.balance = 10.0;
    a.incomeRate = 2.0;
    a.bytesHeld = 4 << 20; // burn 4 - 2 = 2 drams/s -> 5 s runway
    EXPECT_NEAR(m.runwaySec(a), 5.0, 1e-9);
    a.bytesHeld = 1 << 20; // income covers the charge
    EXPECT_GT(m.runwaySec(a), 1e8);
}

// ----------------------------------------------------------------------
// SPCM
// ----------------------------------------------------------------------

class SpcmTest : public ::testing::Test
{
  protected:
    SpcmTest() : kern(s, smallMachine()), spcm(kern, std::nullopt) {}

    kernel::SegmentId
    destSegment(std::uint64_t pages, kernel::UserId uid = 1)
    {
        return kern.createSegmentNow("dst", 4096, pages, uid);
    }

    sim::Simulation s;
    kernel::Kernel kern;
    SystemPageCacheManager spcm;
};

TEST_F(SpcmTest, GrantsAndReturnsFrames)
{
    ClientId c = spcm.registerClient("app", 1, 0.0);
    kernel::SegmentId dst = destSegment(8);
    std::uint64_t free0 = spcm.freeFrames();

    std::uint64_t got = runTask(
        s, spcm.requestPages(c, dst, {0, 1, 2, 3}));
    EXPECT_EQ(got, 4u);
    EXPECT_EQ(spcm.freeFrames(), free0 - 4);
    EXPECT_EQ(spcm.account(c).bytesHeld, 4u * 4096);

    std::uint64_t back = runTask(s, spcm.returnPages(c, dst, {1, 2}));
    EXPECT_EQ(back, 2u);
    EXPECT_EQ(spcm.freeFrames(), free0 - 2);
    EXPECT_EQ(spcm.account(c).bytesHeld, 2u * 4096);

    std::string why;
    EXPECT_TRUE(kern.checkFrameInvariant(&why)) << why;
}

TEST_F(SpcmTest, PhysRangeConstraint)
{
    ClientId c = spcm.registerClient("dash", 1, 0.0);
    kernel::SegmentId dst = destSegment(8);
    // Ask for frames in the second megabyte only.
    auto cons = Constraint::physRange(1 << 20, 2 << 20);
    std::uint64_t got =
        runTask(s, spcm.requestPages(c, dst, {0, 1, 2}, cons));
    EXPECT_EQ(got, 3u);
    auto attrs = kern.getPageAttributesNow(dst, 0, 3);
    for (const auto &a : attrs) {
        EXPECT_GE(a.physAddr, 1u << 20);
        EXPECT_LT(a.physAddr, 2u << 20);
    }
}

TEST_F(SpcmTest, ColorConstraint)
{
    ClientId c = spcm.registerClient("colored", 1, 0.0);
    kernel::SegmentId dst = destSegment(8);
    auto cons = Constraint::pageColor(3, 16);
    std::uint64_t got =
        runTask(s, spcm.requestPages(c, dst, {0, 1, 2, 3}, cons));
    EXPECT_EQ(got, 4u);
    auto attrs = kern.getPageAttributesNow(dst, 0, 4);
    for (const auto &a : attrs)
        EXPECT_EQ(a.frame % 16, 3u);
}

TEST_F(SpcmTest, UnsatisfiableConstraintGrantsWhatItCan)
{
    ClientId c = spcm.registerClient("picky", 1, 0.0);
    kernel::SegmentId dst = destSegment(8);
    // Only 256 frames exist in the first megabyte.
    auto cons = Constraint::physRange(0, 1 << 20);
    std::vector<kernel::PageIndex> slots;
    kernel::SegmentId big = destSegment(4096);
    for (kernel::PageIndex i = 0; i < 300; ++i)
        slots.push_back(i);
    std::uint64_t got =
        runTask(s, spcm.requestPages(c, big, slots, cons));
    EXPECT_EQ(got, 256u);
    (void)dst;
}

TEST_F(SpcmTest, CrossUserGrantZeroFills)
{
    ClientId alice = spcm.registerClient("alice", 1, 0.0);
    ClientId bob = spcm.registerClient("bob", 2, 0.0);

    kernel::SegmentId da = destSegment(4, 1);
    runTask(s, spcm.requestPages(alice, da, {0}));
    kern.writePageData(da, 0, 0,
                       std::as_bytes(std::span("secret", 6)));
    runTask(s, spcm.returnPages(alice, da, {0}));

    std::uint64_t zeroed_before = kern.stats().zeroFills;
    kernel::SegmentId db = destSegment(4, 2);
    // Bob receives frames last used by alice: must be zeroed.
    runTask(s, spcm.requestPages(bob, db, {0, 1, 2, 3}));
    EXPECT_GT(kern.stats().zeroFills, zeroed_before);
    char buf[6];
    kern.readPageData(db, 0, 0,
                      std::as_writable_bytes(std::span(buf, 6)));
    for (char ch : buf)
        EXPECT_EQ(ch, 0);
}

TEST_F(SpcmTest, SameUserReGrantSkipsZeroing)
{
    ClientId alice = spcm.registerClient("alice", 1, 0.0);
    kernel::SegmentId da = destSegment(4, 1);
    runTask(s, spcm.requestPages(alice, da, {0}));
    auto attr = kern.getPageAttributesNow(da, 0, 1)[0];
    hw::FrameId f = attr.frame;
    runTask(s, spcm.returnPages(alice, da, {0}));

    std::uint64_t zeroed_before = kern.stats().zeroFills;
    // Request constrained to exactly that frame: same user, no zero.
    auto cons = Constraint::physRange(kern.memory().physAddr(f),
                                      kern.memory().physAddr(f) + 4096);
    EXPECT_EQ(runTask(s, spcm.requestPages(alice, da, {1}, cons)), 1u);
    EXPECT_EQ(kern.stats().zeroFills, zeroed_before);
}

TEST_F(SpcmTest, ConcurrentRequestsNeverDoubleGrantFrames)
{
    // Regression: grant decisions span awaits; two overlapping
    // requests must not select the same frames (the SPCM serialises
    // like the single server process it models).
    ClientId a = spcm.registerClient("a", 1, 0.0);
    ClientId b = spcm.registerClient("b", 2, 0.0);
    kernel::SegmentId da = destSegment(64, 1);
    kernel::SegmentId db = destSegment(64, 2);
    std::vector<kernel::PageIndex> slots;
    for (kernel::PageIndex i = 0; i < 64; ++i)
        slots.push_back(i);

    s.spawn([](SystemPageCacheManager &pool, ClientId c,
               kernel::SegmentId dst,
               std::vector<kernel::PageIndex> sl) -> sim::Task<> {
        co_await pool.requestPages(c, dst, std::move(sl));
    }(spcm, a, da, slots));
    s.spawn([](SystemPageCacheManager &pool, ClientId c,
               kernel::SegmentId dst,
               std::vector<kernel::PageIndex> sl) -> sim::Task<> {
        co_await pool.requestPages(c, dst, std::move(sl));
    }(spcm, b, db, slots));
    s.run();

    EXPECT_EQ(kern.segment(da).presentPages(), 64u);
    EXPECT_EQ(kern.segment(db).presentPages(), 64u);
    std::string why;
    EXPECT_TRUE(kern.checkFrameInvariant(&why)) << why;
}

TEST_F(SpcmTest, MarketLimitsGrant)
{
    kernel::Kernel k2(s, smallMachine());
    MarketParams p;
    p.chargePerMBSec = 1.0;
    p.grantHorizonSec = 1.0;
    p.savingsTaxPerSec = 0.0;
    SystemPageCacheManager market_spcm(k2, p);
    // Income sustains 2 MB = 512 frames.
    ClientId c = market_spcm.registerClient("budget", 1, 2.0);
    kernel::SegmentId dst = k2.createSegmentNow("d", 4096, 4096, 1);
    std::vector<kernel::PageIndex> slots;
    for (kernel::PageIndex i = 0; i < 1024; ++i)
        slots.push_back(i);
    std::uint64_t got =
        runTask(s, market_spcm.requestPages(c, dst, slots));
    EXPECT_EQ(got, 512u);
}

TEST_F(SpcmTest, PatrolForcesReclaim)
{
    kernel::Kernel k2(s, smallMachine());
    MarketParams p;
    p.chargePerMBSec = 1.0;
    p.savingsTaxPerSec = 0.0;
    p.freeWhenUncontended = false;
    SystemPageCacheManager ms(k2, p);

    std::uint64_t demanded = 0;
    ClientId c = ms.registerClient(
        "broke", 1, 0.0, [&demanded](std::uint64_t n) -> sim::Task<> {
            demanded += n;
            co_return;
        });
    ms.deposit(c, 4.0); // enough for 4 MB for 1 s
    kernel::SegmentId dst = k2.createSegmentNow("d", 4096, 2048, 1);
    std::vector<kernel::PageIndex> slots;
    for (kernel::PageIndex i = 0; i < 1024; ++i)
        slots.push_back(i); // ask for 4 MB
    runTask(s, ms.requestPages(c, dst, slots));
    EXPECT_EQ(ms.account(c).bytesHeld, 4u << 20);

    // After 3 seconds the account is deep in debt; patrol demands
    // frames back.
    s.schedule(s.now() + sec(3), [] {});
    s.run();
    runTask(s, ms.patrol());
    EXPECT_GT(demanded, 0u);
}

// ----------------------------------------------------------------------
// GenericSegmentManager
// ----------------------------------------------------------------------

class GenericTest : public ::testing::Test
{
  protected:
    GenericTest()
        : kern(s, smallMachine()), spcm(kern, std::nullopt),
          mgr(kern, "app-mgr", hw::ManagerMode::SameProcess, &spcm, 1),
          proc("app", 1)
    {
        mgr.initNow(1024, 64);
    }

    sim::Simulation s;
    kernel::Kernel kern;
    SystemPageCacheManager spcm;
    GenericSegmentManager mgr;
    kernel::Process proc;
};

TEST_F(GenericTest, ResolvesFaultsFromFreePool)
{
    kernel::SegmentId seg =
        kern.createSegmentNow("data", 4096, 64, 1, &mgr);
    EXPECT_EQ(mgr.freePages(), 64u);
    runTask(s, kern.touchSegment(proc, seg, 3, kernel::AccessType::Write));
    EXPECT_EQ(mgr.freePages(), 63u);
    EXPECT_EQ(mgr.pagesAllocated(), 1u);
    EXPECT_EQ(mgr.migrateInvocations(), 1u);
    EXPECT_TRUE(kern.segment(seg).findPage(3));
}

TEST_F(GenericTest, MinimalFaultCostMatchesTable1)
{
    kernel::SegmentId seg =
        kern.createSegmentNow("data", 4096, 64, 1, &mgr);
    sim::SimTime t0 = s.now();
    runTask(s, kern.touchSegment(proc, seg, 0, kernel::AccessType::Write));
    EXPECT_EQ(s.now() - t0, usec(107));
}

TEST_F(GenericTest, ReplenishesFromSpcmWhenPoolEmpty)
{
    kernel::SegmentId seg =
        kern.createSegmentNow("data", 4096, 256, 1, &mgr);
    // Drain the pool: 64 initial frames, then more must be fetched.
    for (kernel::PageIndex p = 0; p < 100; ++p) {
        runTask(s,
                kern.touchSegment(proc, seg, p,
                                  kernel::AccessType::Write));
    }
    EXPECT_EQ(kern.segment(seg).presentPages(), 100u);
    EXPECT_GT(spcm.grantsServed(), 0u);
    std::string why;
    EXPECT_TRUE(kern.checkFrameInvariant(&why)) << why;
}

TEST_F(GenericTest, ReclaimWritesNothingForCleanPages)
{
    kernel::SegmentId seg =
        kern.createSegmentNow("data", 4096, 64, 1, &mgr);
    runTask(s, kern.touchSegment(proc, seg, 0, kernel::AccessType::Read));
    std::uint64_t free_before = mgr.freePages();
    runTask(s, mgr.reclaimPage(kern, seg, 0));
    EXPECT_EQ(mgr.freePages(), free_before + 1);
    EXPECT_EQ(mgr.writeBacks(), 0u);
    EXPECT_FALSE(kern.segment(seg).findPage(0));
}

TEST_F(GenericTest, DiscardableDirtyPageSkipsWriteBack)
{
    kernel::SegmentId seg =
        kern.createSegmentNow("data", 4096, 64, 1, &mgr);
    runTask(s, kern.touchSegment(proc, seg, 0, kernel::AccessType::Write));
    kern.modifyPageFlagsNow(seg, 0, 1, flag::kDiscardable, 0);
    runTask(s, mgr.reclaimPage(kern, seg, 0));
    EXPECT_EQ(mgr.writeBacks(), 0u);
}

TEST_F(GenericTest, SurrenderReturnsFramesToSpcm)
{
    std::uint64_t free0 = spcm.freeFrames();
    std::uint64_t n = runTask(s, mgr.surrenderFrames(16));
    EXPECT_EQ(n, 16u);
    EXPECT_EQ(mgr.freePages(), 48u);
    EXPECT_EQ(spcm.freeFrames(), free0 + 16);
}

TEST_F(GenericTest, SegmentCloseReclaimsAllPages)
{
    kernel::SegmentId seg =
        kern.createSegmentNow("data", 4096, 64, 1, &mgr);
    for (kernel::PageIndex p = 0; p < 10; ++p) {
        runTask(s,
                kern.touchSegment(proc, seg, p,
                                  kernel::AccessType::Write));
    }
    std::uint64_t free_before = mgr.freePages();
    runTask(s, kern.destroySegment(seg));
    EXPECT_EQ(mgr.freePages(), free_before + 10);
    std::string why;
    EXPECT_TRUE(kern.checkFrameInvariant(&why)) << why;
}

TEST(GenericRefill, GrantAndReturnAllocateAFixedFew)
{
    if (!sim::mem::hooksActive())
        GTEST_SKIP() << "heap accounting compiled out";
    // A pool refill from the SPCM and its return, once warm: the slot
    // lists are reserved at their final size and the SPCM reads the
    // caller's list without a copy. A grant allocates the slot list
    // and pickFrames' frame list; a return, the slot list. Neither
    // count grows with the number of frames moved.
    sim::Simulation s;
    kernel::Kernel kern(s, smallMachine());
    SystemPageCacheManager spcm(kern, std::nullopt);
    GenericSegmentManager mgr(kern, "app-mgr",
                              hw::ManagerMode::SeparateProcess, &spcm, 1);
    mgr.initNow(1024, 64);
    for (std::uint64_t n : {128u, 8u}) {
        SCOPED_TRACE(n);
        ASSERT_EQ(runTask(s, mgr.requestFrames(n)), n);
        ASSERT_EQ(runTask(s, mgr.surrenderFrames(n)), n);
        const std::uint64_t a0 = sim::mem::threadAllocations();
        ASSERT_EQ(runTask(s, mgr.requestFrames(n)), n);
        const std::uint64_t a1 = sim::mem::threadAllocations();
        ASSERT_EQ(runTask(s, mgr.surrenderFrames(n)), n);
        const std::uint64_t a2 = sim::mem::threadAllocations();
        EXPECT_EQ(a1 - a0, 2u);
        EXPECT_EQ(a2 - a1, 1u);
    }
    std::string why;
    EXPECT_TRUE(kern.checkFrameInvariant(&why)) << why;
}

// ----------------------------------------------------------------------
// DefaultSegmentManager clock
// ----------------------------------------------------------------------

TEST_F(GenericTest, ResetStatsClearsResilienceCountersBetweenRows)
{
    // The sweep runner reuses nothing across rows, but a manager
    // embedded in a long-lived harness is reset at row boundaries:
    // resetStats must clear the failure-path counters (timeouts,
    // failovers, crashes) along with the classic call counts, so the
    // second row observes exactly what the first row did.
    kernel::SegmentId seg =
        kern.createSegmentNow("data", 4096, 64, 1, &mgr);

    // One "row": fault in a fresh page and record failure-path events
    // the way the kernel's resilient delivery would.
    kernel::PageIndex next = 0;
    auto row = [&] {
        runTask(s, kern.touchSegment(proc, seg, next++,
                                     kernel::AccessType::Write));
        mgr.noteTimeout();
        mgr.noteTimeout();
        mgr.noteFailover();
        mgr.noteCrash();
    };

    row();
    EXPECT_EQ(mgr.calls(), 1u);
    EXPECT_EQ(mgr.faultsHandled(), 1u);
    EXPECT_EQ(mgr.faultTimeouts(), 2u);
    EXPECT_EQ(mgr.failovers(), 1u);
    EXPECT_EQ(mgr.crashes(), 1u);

    mgr.resetStats();
    EXPECT_EQ(mgr.calls(), 0u);
    EXPECT_EQ(mgr.faultsHandled(), 0u);
    EXPECT_EQ(mgr.faultTimeouts(), 0u);
    EXPECT_EQ(mgr.failovers(), 0u);
    EXPECT_EQ(mgr.crashes(), 0u);

    // The second row starts from zero and reproduces the first row's
    // counts exactly.
    row();
    EXPECT_EQ(mgr.calls(), 1u);
    EXPECT_EQ(mgr.faultsHandled(), 1u);
    EXPECT_EQ(mgr.faultTimeouts(), 2u);
    EXPECT_EQ(mgr.failovers(), 1u);
    EXPECT_EQ(mgr.crashes(), 1u);
}

class ClockTest : public ::testing::Test
{
  protected:
    ClockTest()
        : kern(s, smallMachine()),
          disk(s, smallMachine().diskLatency,
               smallMachine().diskBandwidthMBps),
          server(s, disk, usec(200)), spcm(kern, std::nullopt),
          ucds(kern, &spcm, server, reg), proc("app", 1)
    {
        ucds.initNow(2048, 256);
    }

    sim::Simulation s;
    kernel::Kernel kern;
    hw::Disk disk;
    uio::FileServer server;
    uio::FileRegistry reg;
    SystemPageCacheManager spcm;
    DefaultSegmentManager ucds;
    kernel::Process proc;
};

TEST_F(ClockTest, UnreferencedPagesGetReclaimed)
{
    kernel::SegmentId heap =
        runTask(s, ucds.createAnonymous("heap", 64, 1));
    for (kernel::PageIndex p = 0; p < 20; ++p) {
        runTask(s,
                kern.touchSegment(proc, heap, p,
                                  kernel::AccessType::Write));
    }
    // First pass: every page was referenced -> sampled, none reclaimed.
    EXPECT_EQ(runTask(s, ucds.clockPass(100)), 0u);
    // Touch only the first five pages again (sampling faults fire).
    for (kernel::PageIndex p = 0; p < 5; ++p) {
        runTask(s,
                kern.touchSegment(proc, heap, p,
                                  kernel::AccessType::Read));
    }
    EXPECT_GT(ucds.samplingFaults(), 0u);
    // Second pass: pages 5..19 were not referenced -> reclaimable.
    std::uint64_t reclaimed = runTask(s, ucds.clockPass(100));
    EXPECT_EQ(reclaimed, 15u);
    EXPECT_TRUE(kern.segment(heap).findPage(0));
    EXPECT_FALSE(kern.segment(heap).findPage(10));
}

TEST_F(ClockTest, OverlappingPassThrows)
{
    kernel::SegmentId heap =
        runTask(s, ucds.createAnonymous("heap", 64, 1));
    for (kernel::PageIndex p = 0; p < 20; ++p) {
        runTask(s,
                kern.touchSegment(proc, heap, p,
                                  kernel::AccessType::Write));
    }
    // The first pass suspends while it rearms the referenced pages; a
    // second one started meanwhile would restart the policy's pass.
    std::uint64_t first = ~std::uint64_t{0};
    s.spawn([](DefaultSegmentManager &m, std::uint64_t *out) -> sim::Task<> {
        *out = co_await m.clockPass(100);
    }(ucds, &first));
    EXPECT_THROW(runTask(s, ucds.clockPass(100)), std::logic_error);
    s.run();
    EXPECT_EQ(first, 0u);
    // A pass that ended lets the next one run: every page was rearmed
    // and none touched since, so all 20 go.
    EXPECT_EQ(runTask(s, ucds.clockPass(100)), 20u);
    EXPECT_EQ(ucds.clockPasses(), 2u);
}

TEST_F(ClockTest, SamplingReenablesInBatches)
{
    kernel::SegmentId heap =
        runTask(s, ucds.createAnonymous("heap", 64, 1));
    for (kernel::PageIndex p = 0; p < 16; ++p) {
        runTask(s,
                kern.touchSegment(proc, heap, p,
                                  kernel::AccessType::Write));
    }
    runTask(s, ucds.clockPass(0)); // arms the sampler on all 16 pages
    std::uint64_t sampling_before = ucds.samplingFaults();
    // Touch all 16: with a batch size of 8, only 2 sampling faults.
    for (kernel::PageIndex p = 0; p < 16; ++p) {
        runTask(s,
                kern.touchSegment(proc, heap, p,
                                  kernel::AccessType::Read));
    }
    EXPECT_EQ(ucds.samplingFaults() - sampling_before, 2u);
}

TEST_F(ClockTest, ReclaimWritesDirtyFilePagesBack)
{
    uio::FileId f = server.createFile("db", 64 << 10);
    ucds.preloadFileNow(f);
    kernel::SegmentId seg = reg.segmentOf(f);
    runTask(s, kern.touchSegment(proc, seg, 0,
                                 kernel::AccessType::Write));
    // Age every page, then reclaim them all.
    runTask(s, ucds.clockPass(0));
    std::uint64_t writes_before = disk.writes();
    std::uint64_t reclaimed = runTask(s, ucds.clockPass(1000));
    EXPECT_EQ(reclaimed, 16u);
    EXPECT_EQ(disk.writes(), writes_before + 1); // only page 0 dirty
}

TEST_F(ClockTest, SyncPassWritesDirtyFilePagesWithoutReclaim)
{
    uio::FileId f = server.createFile("db", 64 << 10);
    ucds.preloadFileNow(f);
    kernel::SegmentId seg = reg.segmentOf(f);
    runTask(s, kern.touchSegment(proc, seg, 0,
                                 kernel::AccessType::Write));
    runTask(s, kern.touchSegment(proc, seg, 5,
                                 kernel::AccessType::Write));
    kern.writePageData(seg, 5, 0,
                       std::as_bytes(std::span("flushed", 7)));

    std::uint64_t writes0 = disk.writes();
    std::uint64_t written = runTask(s, ucds.syncPass());
    EXPECT_EQ(written, 2u);
    EXPECT_EQ(disk.writes(), writes0 + 2);
    // Pages stay resident but are clean now.
    EXPECT_TRUE(kern.segment(seg).findPage(0));
    EXPECT_FALSE(kern.segment(seg).findPage(5)->flags & flag::kDirty);
    // The data reached the server.
    char buf[8] = {};
    server.readNow(f, 5 * 4096,
                   std::as_writable_bytes(std::span(buf, 7)));
    EXPECT_STREQ(buf, "flushed");
    // A second pass finds nothing dirty.
    EXPECT_EQ(runTask(s, ucds.syncPass()), 0u);
}

TEST_F(ClockTest, SyncDaemonFlushesPeriodically)
{
    uio::FileId f = server.createFile("log", 64 << 10);
    ucds.preloadFileNow(f);
    kernel::SegmentId seg = reg.segmentOf(f);
    runTask(s, kern.touchSegment(proc, seg, 1,
                                 kernel::AccessType::Write));
    ucds.startSyncDaemon(sim::sec(5));
    s.runUntil(sim::sec(6));
    EXPECT_FALSE(kern.segment(seg).findPage(1)->flags & flag::kDirty);
    ucds.stopSyncDaemon();
    s.runUntil(sim::sec(12));
}

TEST_F(ClockTest, PinnedPagesAreNeverReclaimed)
{
    kernel::SegmentId heap =
        runTask(s, ucds.createAnonymous("heap", 64, 1));
    for (kernel::PageIndex p = 0; p < 4; ++p) {
        runTask(s,
                kern.touchSegment(proc, heap, p,
                                  kernel::AccessType::Write));
    }
    kern.modifyPageFlagsNow(heap, 1, 1, flag::kPinned, 0);
    runTask(s, ucds.clockPass(0));
    runTask(s, ucds.clockPass(1000));
    EXPECT_TRUE(kern.segment(heap).findPage(1));
    EXPECT_FALSE(kern.segment(heap).findPage(2));
}

} // namespace
} // namespace vpp::mgr
