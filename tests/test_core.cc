/**
 * @file
 * Unit and property tests for the V++ kernel VM: segments, bound
 * regions, MigratePages / ModifyPageFlags / GetPageAttributes, fault
 * delivery (classic, batched and resilient), copy-on-write and cost
 * calibration.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/kernel.h"
#include "managers/generic.h"
#include "managers/spcm.h"
#include "sim/random.h"

namespace vpp::kernel {
namespace {

using hw::ManagerMode;
using sim::usec;

hw::MachineConfig
smallMachine()
{
    hw::MachineConfig m = hw::decstation5000_200();
    m.memoryBytes = 4 << 20; // 1024 frames: cheap invariant checks
    return m;
}

/**
 * Minimal manager: resolves every fault by migrating the next page of
 * a free-page segment into the faulting page, charging the standard
 * manager bookkeeping cost. Protection faults are resolved by enabling
 * the required access.
 */
class TestManager : public SegmentManager
{
  public:
    TestManager(ManagerMode mode, SegmentId free_seg)
        : SegmentManager("test-mgr", mode), freeSeg_(free_seg)
    {}

    sim::Task<>
    handleFault(Kernel &k, const Fault &f) override
    {
        lastFault_ = f;
        if (f.type == FaultType::Protection) {
            co_await k.modifyPageFlags(
                f.segment, f.page, 1,
                flag::kReadable | flag::kWritable, 0);
            co_return;
        }
        co_await k.simulation().delay(
            k.config().cost.managerAlloc);
        co_await k.migratePages(freeSeg_, f.segment, nextFree_++,
                                f.page, 1,
                                flag::kReadable | flag::kWritable, 0);
    }

    sim::Task<>
    segmentClosed(Kernel &k, SegmentId s) override
    {
        (void)k;
        closed_.push_back(s);
        co_return;
    }

    const Fault &lastFault() const { return lastFault_; }
    const std::vector<SegmentId> &closed() const { return closed_; }

  private:
    SegmentId freeSeg_;
    PageIndex nextFree_ = 0;
    Fault lastFault_;
    std::vector<SegmentId> closed_;
};

/** A manager that never resolves anything. */
class BrokenManager : public SegmentManager
{
  public:
    BrokenManager() : SegmentManager("broken", ManagerMode::SameProcess) {}

    sim::Task<>
    handleFault(Kernel &, const Fault &) override
    {
        co_return;
    }
};

class KernelTest : public ::testing::Test
{
  protected:
    KernelTest() : kern(s, smallMachine()) {}

    /** Create a segment pre-loaded with @p n frames from segment 0. */
    SegmentId
    freeSegment(std::uint64_t n, const std::string &name = "free")
    {
        SegmentId id =
            kern.createSegmentNow(name, 4096, n, kSystemUser);
        // Draw from the top of the physical segment so tests that
        // reference low frame numbers directly stay undisturbed.
        physCursor_ -= n;
        kern.migratePagesNow(kPhysSegment, id, physCursor_, 0, n,
                             flag::kReadable | flag::kWritable, 0);
        return id;
    }

    sim::Simulation s;
    Kernel kern;
    PageIndex physCursor_ = smallMachine().memoryBytes / 4096;
};

TEST_F(KernelTest, BootState)
{
    const Segment &phys = kern.segment(kPhysSegment);
    EXPECT_EQ(phys.presentPages(), kern.memory().numFrames());
    EXPECT_EQ(phys.pageSize(), 4096u);
    std::string why;
    EXPECT_TRUE(kern.checkFrameInvariant(&why)) << why;
    // Frames are in physical-address order.
    auto attrs = kern.getPageAttributesNow(kPhysSegment, 5, 2);
    EXPECT_EQ(attrs[0].physAddr, 5u * 4096);
    EXPECT_EQ(attrs[1].physAddr, 6u * 4096);
}

TEST_F(KernelTest, CreateSegmentValidation)
{
    EXPECT_THROW(kern.createSegmentNow("bad", 1000, 1, 0), KernelError);
    EXPECT_THROW(kern.createSegmentNow("bad", 2048, 1, 0), KernelError);
    SegmentId ok = kern.createSegmentNow("ok", 8192, 4, 7);
    EXPECT_EQ(kern.segment(ok).pageSize(), 8192u);
    EXPECT_EQ(kern.segment(ok).owner(), 7u);
    EXPECT_THROW(kern.segment(9999), KernelError);
}

TEST_F(KernelTest, MigrateMovesOwnership)
{
    SegmentId seg = kern.createSegmentNow("a", 4096, 16, kSystemUser);
    std::uint64_t moved = kern.migratePagesNow(
        kPhysSegment, seg, 10, 3, 2, flag::kReadable, 0);
    EXPECT_EQ(moved, 2u);

    EXPECT_EQ(kern.segment(seg).presentPages(), 2u);
    const PageEntry *e = kern.segment(seg).findPage(3);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->frame, 10u);
    EXPECT_EQ(e->flags & flag::kReadable, flag::kReadable);
    EXPECT_FALSE(kern.segment(kPhysSegment).findPage(10));
    EXPECT_EQ(kern.frameOwner(10).segment, seg);
    EXPECT_EQ(kern.frameOwner(10).page, 3u);

    std::string why;
    EXPECT_TRUE(kern.checkFrameInvariant(&why)) << why;
}

TEST_F(KernelTest, MigrateFlagEdits)
{
    SegmentId seg = freeSegment(4);
    SegmentId dst = kern.createSegmentNow("d", 4096, 4, kSystemUser);
    // Source pages have R|W; set Dirty, clear Writable on migration.
    kern.migratePagesNow(seg, dst, 0, 0, 1, flag::kDirty,
                         flag::kWritable);
    const PageEntry *e = kern.segment(dst).findPage(0);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->flags,
              flag::kReadable | flag::kDirty);
}

TEST_F(KernelTest, MigrateErrors)
{
    SegmentId a = freeSegment(4, "a");
    SegmentId b = kern.createSegmentNow("b", 4096, 4, kSystemUser);

    // Missing source page.
    EXPECT_THROW(kern.migratePagesNow(b, a, 0, 0, 1, 0, 0), KernelError);
    // Busy destination.
    kern.migratePagesNow(a, b, 0, 0, 1, 0, 0);
    EXPECT_THROW(kern.migratePagesNow(a, b, 1, 0, 1, 0, 0), KernelError);
    // Beyond destination limit.
    EXPECT_THROW(kern.migratePagesNow(a, b, 1, 4, 1, 0, 0), KernelError);
    // Overlapping self-migration.
    EXPECT_THROW(kern.migratePagesNow(a, a, 1, 2, 2, 0, 0), KernelError);
    // Non-overlapping self-migration into the slot vacated above is
    // legal.
    EXPECT_EQ(kern.migratePagesNow(a, a, 1, 0, 1, 0, 0), 1u);

    std::string why;
    EXPECT_TRUE(kern.checkFrameInvariant(&why)) << why;
}

TEST_F(KernelTest, MigrateCoalesceToLargePage)
{
    // 4 x 4 KB contiguous, aligned frames form one 16 KB page.
    SegmentId big = kern.createSegmentNow("big", 16384, 4, kSystemUser);
    std::uint64_t ndst = kern.migratePagesNow(
        kPhysSegment, big, 8, 1, 4, flag::kReadable, 0);
    EXPECT_EQ(ndst, 1u);
    const PageEntry *e = kern.segment(big).findPage(1);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->frame, 8u);
    for (hw::FrameId f = 8; f < 12; ++f) {
        EXPECT_EQ(kern.frameOwner(f).segment, big);
        EXPECT_EQ(kern.frameOwner(f).page, 1u);
    }
    std::string why;
    EXPECT_TRUE(kern.checkFrameInvariant(&why)) << why;
}

TEST_F(KernelTest, MigrateCoalesceRequiresAlignmentAndContiguity)
{
    SegmentId big = kern.createSegmentNow("big", 16384, 4, kSystemUser);
    // Misaligned start (frame 9).
    EXPECT_THROW(
        kern.migratePagesNow(kPhysSegment, big, 9, 0, 4, 0, 0),
        KernelError);

    // Break contiguity: pull frame 13 out of the middle, then shuffle
    // a replacement in, so pages 12..15 of physmem no longer map to
    // frames 12..15.
    SegmentId stash = kern.createSegmentNow("st", 4096, 2, kSystemUser);
    kern.migratePagesNow(kPhysSegment, stash, 13, 0, 1, 0, 0);
    kern.migratePagesNow(kPhysSegment, stash, 17, 1, 1, 0, 0);
    kern.migratePagesNow(stash, kPhysSegment, 1, 13, 1, 0, 0);
    // physmem page 13 now holds frame 17: not contiguous with 12.
    EXPECT_THROW(
        kern.migratePagesNow(kPhysSegment, big, 12, 0, 4, 0, 0),
        KernelError);
    // Size mismatch: 3 x 4 KB does not tile 16 KB pages.
    EXPECT_THROW(
        kern.migratePagesNow(kPhysSegment, big, 20, 0, 3, 0, 0),
        KernelError);
}

TEST_F(KernelTest, MigrateSplitLargePage)
{
    SegmentId big = kern.createSegmentNow("big", 16384, 4, kSystemUser);
    kern.migratePagesNow(kPhysSegment, big, 8, 0, 4, flag::kDirty, 0);
    SegmentId small = kern.createSegmentNow("sm", 4096, 8, kSystemUser);
    std::uint64_t ndst = kern.migratePagesNow(big, small, 0, 2, 1, 0, 0);
    EXPECT_EQ(ndst, 4u);
    for (int i = 0; i < 4; ++i) {
        const PageEntry *e = kern.segment(small).findPage(2 + i);
        ASSERT_NE(e, nullptr);
        EXPECT_EQ(e->frame, 8u + i);
        EXPECT_TRUE(e->flags & flag::kDirty);
    }
    std::string why;
    EXPECT_TRUE(kern.checkFrameInvariant(&why)) << why;
}

TEST_F(KernelTest, ZeroFillOnMigrate)
{
    SegmentId seg = freeSegment(2);
    // Dirty a frame's contents, then reclaim and re-grant with zeroing.
    kern.writePageData(seg, 0, 0,
                       std::as_bytes(std::span("sekrit", 6)));
    SegmentId dst = kern.createSegmentNow("d", 4096, 2, kSystemUser);
    kern.migratePagesNow(seg, dst, 0, 0, 1,
                         flag::kZeroFill | flag::kReadable, 0);
    char buf[6] = {1, 1, 1, 1, 1, 1};
    kern.readPageData(dst, 0, 0,
                      std::as_writable_bytes(std::span(buf, 6)));
    for (char c : buf)
        EXPECT_EQ(c, 0);
    const PageEntry *e = kern.segment(dst).findPage(0);
    ASSERT_NE(e, nullptr);
    EXPECT_FALSE(e->flags & flag::kZeroFill);
    EXPECT_EQ(kern.stats().zeroFills, 1u);
    EXPECT_EQ(kern.stats().bytesZeroed, 4096u);
}

TEST_F(KernelTest, ModifyFlagsSkipsMissingPages)
{
    SegmentId seg = freeSegment(2);
    // Pages 0 and 1 exist; 2 and 3 do not.
    std::uint64_t n =
        kern.modifyPageFlagsNow(seg, 0, 4, flag::kPinned, 0);
    EXPECT_EQ(n, 2u);
    EXPECT_TRUE(kern.segment(seg).findPage(0)->flags & flag::kPinned);
}

TEST_F(KernelTest, GetPageAttributesReportsPhysicalAddresses)
{
    SegmentId seg = kern.createSegmentNow("s", 4096, 8, kSystemUser);
    kern.migratePagesNow(kPhysSegment, seg, 42, 5, 1, flag::kDirty, 0);
    auto attrs = kern.getPageAttributesNow(seg, 4, 3);
    EXPECT_FALSE(attrs[0].present);
    EXPECT_TRUE(attrs[1].present);
    EXPECT_EQ(attrs[1].frame, 42u);
    EXPECT_EQ(attrs[1].physAddr, 42u * 4096);
    EXPECT_TRUE(attrs[1].flags & flag::kDirty);
    EXPECT_FALSE(attrs[2].present);
}

TEST_F(KernelTest, BindingValidation)
{
    SegmentId a = kern.createSegmentNow("a", 4096, 16, kSystemUser);
    SegmentId b = kern.createSegmentNow("b", 4096, 16, kSystemUser);
    SegmentId big = kern.createSegmentNow("c", 8192, 16, kSystemUser);

    kern.bindRegionNow(a, 0, 4, b, 0, flag::kProtMask);
    // Overlap rejected.
    EXPECT_THROW(kern.bindRegionNow(a, 2, 4, b, 8, flag::kProtMask),
                 KernelError);
    // Page-size mismatch rejected.
    EXPECT_THROW(kern.bindRegionNow(a, 8, 2, big, 0, flag::kProtMask),
                 KernelError);
    // Self-binding rejected.
    EXPECT_THROW(kern.bindRegionNow(a, 8, 2, a, 0, flag::kProtMask),
                 KernelError);
    // Out-of-range rejected.
    EXPECT_THROW(kern.bindRegionNow(a, 14, 4, b, 0, flag::kProtMask),
                 KernelError);

    // A bound-to segment cannot be destroyed.
    EXPECT_THROW(runTask(s, kern.destroySegment(b)), KernelError);
    kern.unbindRegionNow(a, 0);
    runTask(s, kern.destroySegment(b));
}

TEST_F(KernelTest, ResolveFollowsBindingsAndOwnPagesOverride)
{
    SegmentId file = freeSegment(4, "file");
    SegmentId va = kern.createSegmentNow("va", 4096, 16, kSystemUser);
    kern.bindRegionNow(va, 8, 4, file, 0, flag::kProtMask);

    auto r = kern.resolve(va, 9);
    EXPECT_TRUE(r.present);
    EXPECT_EQ(r.seg, file);
    EXPECT_EQ(r.page, 1u);
    EXPECT_FALSE(r.viaCow);

    // With a copy-on-write binding, installing a page creates a
    // private shadow that overrides the binding.
    SegmentId cow = kern.createSegmentNow("cow", 4096, 8, kSystemUser);
    kern.bindRegionNow(cow, 0, 4, file, 0, flag::kProtMask, true);
    SegmentId extra = freeSegment(1, "extra");
    kern.migratePagesNow(extra, cow, 0, 1, 1, flag::kProtMask, 0);
    r = kern.resolve(cow, 1);
    EXPECT_EQ(r.seg, cow);
    EXPECT_EQ(r.page, 1u);
    EXPECT_FALSE(r.viaCow); // own page found before the binding
    r = kern.resolve(cow, 2);
    EXPECT_TRUE(r.viaCow);
    EXPECT_EQ(r.seg, file);

    // Unbound page resolves to not-present at the outer segment.
    r = kern.resolve(va, 1);
    EXPECT_FALSE(r.present);
    EXPECT_EQ(r.seg, va);
}

TEST_F(KernelTest, MigrateThroughBoundRegionOperatesOnTarget)
{
    // Figure 1: migrating to a VA address covered by a bound region
    // effectively migrates into the bound segment.
    SegmentId data = kern.createSegmentNow("data", 4096, 8, kSystemUser);
    SegmentId va = kern.createSegmentNow("va", 4096, 32, kSystemUser);
    kern.bindRegionNow(va, 16, 8, data, 0, flag::kProtMask);

    SegmentId free_seg = freeSegment(1);
    kern.migratePagesNow(free_seg, va, 0, 18, 1, flag::kProtMask, 0);
    EXPECT_EQ(kern.segment(va).presentPages(), 0u);
    EXPECT_TRUE(kern.segment(data).findPage(2));
}

TEST_F(KernelTest, FaultDeliveredToManagerAndResolved)
{
    SegmentId free_seg = freeSegment(8);
    TestManager mgr(ManagerMode::SameProcess, free_seg);
    SegmentId seg =
        kern.createSegmentNow("app", 4096, 16, kSystemUser, &mgr);

    Process p("app", 1);
    runTask(s, kern.touchSegment(p, seg, 7, AccessType::Write));

    EXPECT_EQ(mgr.calls(), 1u);
    EXPECT_EQ(mgr.lastFault().type, FaultType::MissingPage);
    EXPECT_EQ(mgr.lastFault().segment, seg);
    EXPECT_EQ(mgr.lastFault().page, 7u);
    EXPECT_EQ(mgr.lastFault().access, AccessType::Write);
    EXPECT_EQ(p.faults(), 1u);

    const PageEntry *e = kern.segment(seg).findPage(7);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->flags & flag::kReferenced);
    EXPECT_TRUE(e->flags & flag::kDirty);

    // Second access: no new fault.
    runTask(s, kern.touchSegment(p, seg, 7, AccessType::Read));
    EXPECT_EQ(mgr.calls(), 1u);
}

TEST_F(KernelTest, ReadDoesNotSetDirty)
{
    SegmentId free_seg = freeSegment(8);
    TestManager mgr(ManagerMode::SameProcess, free_seg);
    SegmentId seg =
        kern.createSegmentNow("app", 4096, 16, kSystemUser, &mgr);
    Process p("app", 1);
    runTask(s, kern.touchSegment(p, seg, 0, AccessType::Read));
    const PageEntry *e = kern.segment(seg).findPage(0);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->flags & flag::kReferenced);
    EXPECT_FALSE(e->flags & flag::kDirty);
}

TEST_F(KernelTest, ProtectionFaultDelivered)
{
    SegmentId free_seg = freeSegment(8);
    TestManager mgr(ManagerMode::SameProcess, free_seg);
    SegmentId seg =
        kern.createSegmentNow("app", 4096, 16, kSystemUser, &mgr);
    Process p("app", 1);
    runTask(s, kern.touchSegment(p, seg, 0, AccessType::Write));

    // Revoke all access (reference-sampling style), then read.
    kern.modifyPageFlagsNow(seg, 0, 1, 0,
                            flag::kReadable | flag::kWritable);
    runTask(s, kern.touchSegment(p, seg, 0, AccessType::Read));
    EXPECT_EQ(mgr.lastFault().type, FaultType::Protection);
    EXPECT_EQ(kern.stats().protectionFaults, 1u);
}

TEST_F(KernelTest, CopyOnWriteFault)
{
    // file segment with known content; data segment bound COW to it.
    SegmentId file = freeSegment(4, "file");
    const char msg[] = "original page data";
    kern.writePageData(file, 2, 0,
                       std::as_bytes(std::span(msg, sizeof(msg))));

    SegmentId free_seg = freeSegment(8);
    TestManager mgr(ManagerMode::SameProcess, free_seg);
    SegmentId data =
        kern.createSegmentNow("data", 4096, 4, kSystemUser, &mgr);
    kern.bindRegionNow(data, 0, 4, file, 0, flag::kProtMask, true);

    Process p("app", 1);
    // Reads go straight through to the file pages: no fault.
    runTask(s, kern.touchSegment(p, data, 2, AccessType::Read));
    EXPECT_EQ(mgr.calls(), 0u);

    // A write triggers a copy-on-write fault on the data segment.
    runTask(s, kern.touchSegment(p, data, 2, AccessType::Write));
    EXPECT_EQ(mgr.lastFault().type, FaultType::CopyOnWrite);
    EXPECT_EQ(mgr.lastFault().segment, data);
    EXPECT_EQ(mgr.lastFault().page, 2u);
    EXPECT_EQ(mgr.lastFault().cowSource, file);
    EXPECT_EQ(mgr.lastFault().cowSourcePage, 2u);
    EXPECT_EQ(kern.stats().cowFaults, 1u);

    // The kernel copied the data into the private page.
    const PageEntry *e = kern.segment(data).findPage(2);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->flags & flag::kDirty);
    char buf[sizeof(msg)] = {};
    kern.readPageData(data, 2, 0,
                      std::as_writable_bytes(
                          std::span(buf, sizeof(buf))));
    EXPECT_STREQ(buf, msg);

    // Writing the private copy does not disturb the file page.
    kern.writePageData(data, 2, 0,
                       std::as_bytes(std::span("XX", 2)));
    kern.readPageData(file, 2, 0,
                      std::as_writable_bytes(
                          std::span(buf, sizeof(buf))));
    EXPECT_STREQ(buf, msg);
}

TEST_F(KernelTest, RegionProtectionViolationIsHardError)
{
    SegmentId file = freeSegment(4, "file");
    SegmentId va = kern.createSegmentNow("va", 4096, 4, kSystemUser);
    kern.bindRegionNow(va, 0, 4, file, 0, flag::kReadable);
    Process p("app", 1);
    runTask(s, kern.touchSegment(p, va, 0, AccessType::Read));
    EXPECT_THROW(
        runTask(s, kern.touchSegment(p, va, 0, AccessType::Write)),
        KernelError);
}

TEST_F(KernelTest, UnresolvedFaultLoopsThenThrows)
{
    BrokenManager mgr;
    SegmentId seg =
        kern.createSegmentNow("app", 4096, 4, kSystemUser, &mgr);
    Process p("app", 1);
    EXPECT_THROW(
        runTask(s, kern.touchSegment(p, seg, 0, AccessType::Read)),
        KernelError);
    EXPECT_GT(mgr.calls(), 1u);
}

TEST_F(KernelTest, FaultWithoutManagerThrows)
{
    SegmentId seg = kern.createSegmentNow("app", 4096, 4, kSystemUser);
    Process p("app", 1);
    EXPECT_THROW(
        runTask(s, kern.touchSegment(p, seg, 0, AccessType::Read)),
        KernelError);
}

TEST_F(KernelTest, DestroyNotifiesManagerAndSweepsFrames)
{
    SegmentId free_seg = freeSegment(8);
    TestManager mgr(ManagerMode::SameProcess, free_seg);
    SegmentId seg =
        kern.createSegmentNow("app", 4096, 16, kSystemUser, &mgr);
    Process p("app", 1);
    runTask(s, kern.touchSegment(p, seg, 0, AccessType::Write));
    runTask(s, kern.touchSegment(p, seg, 1, AccessType::Write));

    std::uint64_t phys_before = kern.physSegmentFrames();
    runTask(s, kern.destroySegment(seg));
    EXPECT_EQ(mgr.closed().size(), 1u);
    EXPECT_EQ(mgr.closed()[0], seg);
    EXPECT_FALSE(kern.segmentExists(seg));
    // TestManager does not reclaim, so the sweep returned both frames.
    EXPECT_EQ(kern.physSegmentFrames(), phys_before + 2);
    std::string why;
    EXPECT_TRUE(kern.checkFrameInvariant(&why)) << why;
}

TEST_F(KernelTest, DestroySurvivesManagerCrashInSegmentClosed)
{
    // segmentClosed dies partway through: the kernel contains the
    // crash and the sweep still returns every frame the manager left
    // behind to the physical segment.
    class CrashingCloseManager : public TestManager
    {
      public:
        using TestManager::TestManager;

        sim::Task<>
        segmentClosed(Kernel &k, SegmentId) override
        {
            co_await k.simulation().delay(usec(10));
            throw std::runtime_error("manager died in segmentClosed");
        }
    };

    SegmentId free_seg = freeSegment(8);
    CrashingCloseManager mgr(ManagerMode::SameProcess, free_seg);
    SegmentId seg =
        kern.createSegmentNow("app", 4096, 16, kSystemUser, &mgr);
    Process p("app", 1);
    runTask(s, kern.touchSegment(p, seg, 0, AccessType::Write));
    runTask(s, kern.touchSegment(p, seg, 3, AccessType::Write));

    std::uint64_t phys_before = kern.physSegmentFrames();
    runTask(s, kern.destroySegment(seg)); // must not rethrow
    EXPECT_FALSE(kern.segmentExists(seg));
    EXPECT_EQ(kern.physSegmentFrames(), phys_before + 2);
    EXPECT_EQ(kern.stats().closeFailures, 1u);
    EXPECT_EQ(mgr.crashes(), 1u);
    std::string why;
    EXPECT_TRUE(kern.checkFrameInvariant(&why)) << why;
}

TEST_F(KernelTest, CopyInOutRoundTripThroughAddressSpace)
{
    SegmentId free_seg = freeSegment(32);
    TestManager mgr(ManagerMode::SameProcess, free_seg);
    SegmentId heap =
        kern.createSegmentNow("heap", 4096, 16, kSystemUser, &mgr);
    SegmentId va =
        kern.createSegmentNow("va", 4096, 64, kSystemUser, &mgr);
    kern.bindRegionNow(va, 16, 16, heap, 0, flag::kProtMask);

    Process p("app", 1);
    p.setAddressSpace(va);

    // Spans two pages, starting mid-page, through the bound region.
    std::string text(5000, 'x');
    for (std::size_t i = 0; i < text.size(); ++i)
        text[i] = static_cast<char>('a' + i % 26);
    std::uint64_t addr = 16 * 4096 + 1234;
    runTask(s, kern.copyIn(p, addr,
                           std::as_bytes(std::span(text.data(),
                                                   text.size()))));
    std::string back(text.size(), 0);
    runTask(s, kern.copyOut(p, addr,
                            std::as_writable_bytes(
                                std::span(back.data(), back.size()))));
    EXPECT_EQ(back, text);
    // Data landed in the heap segment, not the VA segment.
    EXPECT_GT(kern.segment(heap).presentPages(), 0u);
    EXPECT_EQ(kern.segment(va).presentPages(), 0u);
}

// ----------------------------------------------------------------------
// Cost calibration (the basis of Table 1)
// ----------------------------------------------------------------------

/**
 * Every way the kernel crosses into a manager: the three fault
 * delivery paths and the segmentClosed notification of
 * destroySegment. Each must charge the same per-mode crossing.
 */
enum class Crossing { Classic, Coalesced, Resilient, Close };

struct CrossingCase
{
    Crossing crossing;
    ManagerMode mode;
};

/** Names each case, e.g. ClassicSameProcess, in the CTest listing. */
void
PrintTo(const CrossingCase &c, std::ostream *os)
{
    static const char *const kNames[] = {"Classic", "Coalesced",
                                         "Resilient", "Close"};
    *os << kNames[static_cast<int>(c.crossing)]
        << (c.mode == ManagerMode::SameProcess ? "SameProcess"
                                               : "SeparateProcess");
}

/**
 * TestManager whose every body first spends 5 us and whose first body
 * (fault or close) throws.
 */
class ThrowOnceManager : public TestManager
{
  public:
    using TestManager::TestManager;

    sim::Task<>
    handleFault(Kernel &k, const Fault &f) override
    {
        co_await enter(k);
        co_await TestManager::handleFault(k, f);
    }

    sim::Task<>
    segmentClosed(Kernel &k, SegmentId s) override
    {
        co_await enter(k);
        co_await TestManager::segmentClosed(k, s);
    }

  private:
    sim::Task<>
    enter(Kernel &k)
    {
        co_await k.simulation().delay(usec(5));
        if (!thrown_) {
            thrown_ = true;
            throw std::runtime_error("manager body crashed");
        }
    }

    bool thrown_ = false;
};

class KernelCrossing : public ::testing::TestWithParam<CrossingCase>
{
  protected:
    KernelCrossing() : kern(s, machine())
    {
        if (GetParam().crossing == Crossing::Resilient) {
            ResiliencePolicy pol;
            pol.enabled = true;
            kern.setResiliencePolicy(pol);
        }
        freeSeg = kern.createSegmentNow("free", 4096, 8, kSystemUser);
        kern.migratePagesNow(kPhysSegment, freeSeg, 0, 0, 8,
                             flag::kReadable | flag::kWritable, 0);
    }

    static hw::MachineConfig
    machine()
    {
        hw::MachineConfig m = smallMachine();
        m.faultCoalescing = GetParam().crossing == Crossing::Coalesced;
        return m;
    }

    /**
     * Simulated time from now until @p t returns. A resolved fault's
     * deadline callback stays scheduled, so the drained clock would
     * read later than this on the resilient path.
     */
    sim::Duration
    elapsed(sim::Task<> t)
    {
        const sim::SimTime t0 = s.now();
        sim::SimTime end = -1;
        s.spawn([](sim::Simulation &sim, sim::Task<> inner,
                   sim::SimTime *out) -> sim::Task<> {
            co_await std::move(inner);
            *out = sim.now();
        }(s, std::move(t), &end));
        s.run();
        EXPECT_GE(end, t0) << "task did not complete";
        return end - t0;
    }

    bool
    sameProcess() const
    {
        return GetParam().mode == ManagerMode::SameProcess;
    }

    sim::Simulation s;
    Kernel kern;
    SegmentId freeSeg = kInvalidSegment;
};

TEST_P(KernelCrossing, CostMatchesTable1)
{
    TestManager mgr(GetParam().mode, freeSeg);
    SegmentId seg =
        kern.createSegmentNow("app", 4096, 16, kSystemUser, &mgr);
    Process p("app", 1);
    if (GetParam().crossing == Crossing::Close) {
        // syscall + the bare crossing: upcall + resume, or
        // IPC send + reply with two context switches and trap exit.
        EXPECT_EQ(elapsed(kern.destroySegment(seg)),
                  usec(sameProcess() ? 33 : 305));
        EXPECT_EQ(mgr.closed().size(), 1u);
    } else {
        EXPECT_EQ(elapsed(kern.touchSegment(p, seg, 0,
                                            AccessType::Write)),
                  usec(sameProcess() ? 107 : 379));
        EXPECT_EQ(mgr.faultsHandled(), 1u);
    }
}

TEST_P(KernelCrossing, ThrowingBodyLeavesManagerUsable)
{
    ThrowOnceManager mgr(GetParam().mode, freeSeg);
    SegmentId first =
        kern.createSegmentNow("first", 4096, 16, kSystemUser, &mgr);
    SegmentId later =
        kern.createSegmentNow("later", 4096, 16, kSystemUser, &mgr);
    Process p("app", 1);
    switch (GetParam().crossing) {
      case Crossing::Classic:
      case Crossing::Coalesced:
        EXPECT_THROW(runTask(s, kern.touchSegment(p, first, 0,
                                                  AccessType::Write)),
                     std::runtime_error);
        break;
      case Crossing::Resilient:
        // Contained and redelivered.
        runTask(s, kern.touchSegment(p, first, 0, AccessType::Write));
        EXPECT_EQ(kern.stats().managerCrashes, 1u);
        EXPECT_EQ(kern.stats().faultRedeliveries, 1u);
        break;
      case Crossing::Close:
        runTask(s, kern.destroySegment(first));
        EXPECT_EQ(kern.stats().closeFailures, 1u);
        break;
    }
    // The crash released the manager (and, for a separate-process
    // manager, its lock): a later fault on another of its segments
    // pays exactly the minimal fault plus the 5-us handler entry.
    EXPECT_EQ(elapsed(kern.touchSegment(p, later, 0, AccessType::Write)),
              usec(sameProcess() ? 112 : 384));
    EXPECT_TRUE(kern.segment(later).findPage(0));
    std::string why;
    EXPECT_TRUE(kern.checkFrameInvariant(&why)) << why;
}

INSTANTIATE_TEST_SUITE_P(
    PathsByMode, KernelCrossing,
    ::testing::Values(
        CrossingCase{Crossing::Classic, ManagerMode::SameProcess},
        CrossingCase{Crossing::Classic, ManagerMode::SeparateProcess},
        CrossingCase{Crossing::Coalesced, ManagerMode::SameProcess},
        CrossingCase{Crossing::Coalesced, ManagerMode::SeparateProcess},
        CrossingCase{Crossing::Resilient, ManagerMode::SameProcess},
        CrossingCase{Crossing::Resilient, ManagerMode::SeparateProcess},
        CrossingCase{Crossing::Close, ManagerMode::SameProcess},
        CrossingCase{Crossing::Close, ManagerMode::SeparateProcess}));

TEST_F(KernelTest, SeparateProcessManagerSerializesFaults)
{
    SegmentId free_seg = freeSegment(8);
    TestManager mgr(ManagerMode::SeparateProcess, free_seg);
    SegmentId seg =
        kern.createSegmentNow("app", 4096, 16, kSystemUser, &mgr);
    Process p1("a", 1), p2("b", 1);

    s.spawn(kern.touchSegment(p1, seg, 0, AccessType::Write));
    s.spawn(kern.touchSegment(p2, seg, 1, AccessType::Write));
    s.run();
    // Both resolved; the second waited for the first manager pass.
    EXPECT_TRUE(kern.segment(seg).findPage(0));
    EXPECT_TRUE(kern.segment(seg).findPage(1));
    EXPECT_GT(s.now(), usec(379));
}

// ----------------------------------------------------------------------
// TLB modelling
// ----------------------------------------------------------------------

TEST(TlbModel, RefillsChargedOnMappedAccesses)
{
    sim::Simulation s;
    hw::MachineConfig m = smallMachine();
    m.modelTlb = true;
    m.tlbEntries = 4;
    Kernel kern(s, m);
    SegmentId seg = kern.createSegmentNow("hot", 4096, 16, kSystemUser);
    kern.migratePagesNow(kPhysSegment, seg, 0, 0, 8,
                         flag::kReadable | flag::kWritable, 0);
    Process p("app", 1);

    // First pass over 8 pages: all TLB misses (4-entry TLB).
    for (PageIndex pg = 0; pg < 8; ++pg)
        runTask(s, kern.touchSegment(p, seg, pg, AccessType::Read));
    EXPECT_EQ(kern.stats().tlbMisses, 8u);
    EXPECT_EQ(s.now(), 8 * m.tlbRefill);

    // A tight loop over 2 pages: mostly hits (the R3000-style TLB
    // replaces randomly, so allow a little churn).
    std::uint64_t misses = kern.stats().tlbMisses;
    for (int i = 0; i < 20; ++i) {
        runTask(s, kern.touchSegment(p, seg, i % 2, AccessType::Read));
    }
    EXPECT_LE(kern.stats().tlbMisses - misses, 6u);
}

TEST(TlbModel, DisabledByDefault)
{
    sim::Simulation s;
    Kernel kern(s, smallMachine());
    EXPECT_EQ(kern.tlb(), nullptr);
}

// ----------------------------------------------------------------------
// Additional edge cases
// ----------------------------------------------------------------------

TEST_F(KernelTest, BindingChainDepthLimited)
{
    std::vector<SegmentId> chain;
    for (int i = 0; i < 10; ++i) {
        chain.push_back(kern.createSegmentNow(
            "c" + std::to_string(i), 4096, 4, kSystemUser));
    }
    for (int i = 0; i + 1 < 10; ++i) {
        kern.bindRegionNow(chain[i], 0, 4, chain[i + 1], 0,
                           flag::kProtMask);
    }
    EXPECT_THROW(kern.resolve(chain[0], 0), KernelError);
}

TEST_F(KernelTest, UnbindRestoresFaultingBehaviour)
{
    SegmentId file = freeSegment(4, "file");
    SegmentId free_seg = freeSegment(8);
    TestManager mgr(ManagerMode::SameProcess, free_seg);
    SegmentId va = kern.createSegmentNow("va", 4096, 4, kSystemUser,
                                         &mgr);
    kern.bindRegionNow(va, 0, 4, file, 0, flag::kProtMask);
    Process p("app", 1);
    runTask(s, kern.touchSegment(p, va, 1, AccessType::Read));
    EXPECT_EQ(mgr.calls(), 0u); // satisfied through the binding

    kern.unbindRegionNow(va, 0);
    runTask(s, kern.touchSegment(p, va, 1, AccessType::Read));
    EXPECT_EQ(mgr.calls(), 1u); // now the VA segment faults
}

TEST_F(KernelTest, ZeroPageOperationsAreNoOps)
{
    SegmentId a = freeSegment(2, "a");
    EXPECT_EQ(kern.migratePagesNow(a, a, 0, 1, 0, 0, 0), 0u);
    EXPECT_EQ(kern.modifyPageFlagsNow(a, 0, 0, flag::kDirty, 0), 0u);
    EXPECT_TRUE(kern.getPageAttributesNow(a, 0, 0).empty());
}

TEST_F(KernelTest, ChargedOpsAdvanceSimulatedTime)
{
    SegmentId a = freeSegment(4, "a");
    SegmentId b = kern.createSegmentNow("b", 4096, 4, kSystemUser);

    sim::SimTime t0 = s.now();
    runTask(s, kern.migratePages(a, b, 0, 0, 2, 0, 0));
    // migrateBase + 2 * (perPage + mapInstall) = 30 + 2*22 = 74 us.
    EXPECT_EQ(s.now() - t0, usec(74));

    t0 = s.now();
    runTask(s, kern.modifyPageFlags(b, 0, 2, flag::kDirty, 0));
    EXPECT_EQ(s.now() - t0, usec(22 + 2 * 3));

    t0 = s.now();
    auto attrs = runTask(s, kern.getPageAttributes(b, 0, 2));
    EXPECT_EQ(s.now() - t0, usec(20 + 2 * 2));
    EXPECT_EQ(attrs.size(), 2u);
}

TEST_F(KernelTest, AccessBeyondSegmentLimitThrows)
{
    SegmentId seg = kern.createSegmentNow("tiny", 4096, 2, kSystemUser);
    Process p("app", 1);
    EXPECT_THROW(
        runTask(s, kern.touchSegment(p, seg, 2, AccessType::Read)),
        KernelError);
}

TEST_F(KernelTest, StatsTrackOperationCounts)
{
    SegmentId free_seg = freeSegment(8);
    TestManager mgr(ManagerMode::SameProcess, free_seg);
    SegmentId seg =
        kern.createSegmentNow("app", 4096, 16, kSystemUser, &mgr);
    Process p("app", 1);
    kern.stats().reset();
    runTask(s, kern.touchSegment(p, seg, 0, AccessType::Write));
    runTask(s, kern.touchSegment(p, seg, 1, AccessType::Write));
    EXPECT_EQ(kern.stats().faults, 2u);
    EXPECT_EQ(kern.stats().missingFaults, 2u);
    EXPECT_EQ(kern.stats().managerCalls, 2u);
    EXPECT_EQ(kern.stats().migrateCalls, 2u);
    EXPECT_EQ(kern.stats().pagesMigrated, 2u);
}

// ----------------------------------------------------------------------
// Batched fault delivery
// ----------------------------------------------------------------------

TEST(FaultCoalescing, SameInstantFaultsShareOneDispatch)
{
    hw::MachineConfig m = smallMachine();
    m.faultCoalescing = true;
    sim::Simulation s;
    Kernel kern(s, m);
    mgr::SystemPageCacheManager spcm(kern, std::nullopt);
    mgr::GenericSegmentManager manager(
        kern, "m", hw::ManagerMode::SameProcess, &spcm, 1);
    manager.initNow(256, 128);
    SegmentId seg = kern.createSegmentNow("heap", 4096, 256, 1,
                                          &manager);
    Process proc("p", 1);

    std::vector<sim::Task<>> touches;
    for (PageIndex p = 0; p < 8; ++p)
        touches.push_back(
            kern.touchSegment(proc, seg, p, AccessType::Write));
    runTask(s, sim::joinAll(s, std::move(touches)));

    const auto &st = kern.stats();
    EXPECT_EQ(st.faultBatches, 1u);
    EXPECT_EQ(st.faultsCoalesced, 8u);
    EXPECT_EQ(manager.calls(), 1u);
    EXPECT_EQ(manager.faultsHandled(), 8u);
    for (PageIndex p = 0; p < 8; ++p)
        EXPECT_TRUE(kern.segment(seg).findPage(p) != nullptr);
    std::string why;
    EXPECT_TRUE(kern.checkFrameInvariant(&why)) << why;
}

TEST(FaultCoalescing, OffByDefaultKeepsPerFaultDispatch)
{
    sim::Simulation s;
    Kernel kern(s, smallMachine());
    mgr::SystemPageCacheManager spcm(kern, std::nullopt);
    mgr::GenericSegmentManager manager(
        kern, "m", hw::ManagerMode::SameProcess, &spcm, 1);
    manager.initNow(256, 128);
    SegmentId seg = kern.createSegmentNow("heap", 4096, 256, 1,
                                          &manager);
    Process proc("p", 1);

    std::vector<sim::Task<>> touches;
    for (PageIndex p = 0; p < 8; ++p)
        touches.push_back(
            kern.touchSegment(proc, seg, p, AccessType::Write));
    runTask(s, sim::joinAll(s, std::move(touches)));

    const auto &st = kern.stats();
    EXPECT_EQ(st.faultBatches, 0u);
    EXPECT_EQ(st.faultsCoalesced, 0u);
    EXPECT_EQ(manager.calls(), 8u);
    EXPECT_EQ(manager.faultsHandled(), 8u);
}

TEST(FaultCoalescing, BatchedAndClassicReachTheSameState)
{
    // The batch is a delivery optimisation, not a semantic change:
    // both modes must leave the segment with identical present pages
    // and pass the frame invariant.
    auto run = [](bool coalesce) {
        hw::MachineConfig m = smallMachine();
        m.faultCoalescing = coalesce;
        sim::Simulation s;
        Kernel kern(s, m);
        mgr::SystemPageCacheManager spcm(kern, std::nullopt);
        mgr::GenericSegmentManager manager(
            kern, "m", hw::ManagerMode::SameProcess, &spcm, 1);
        manager.initNow(256, 128);
        SegmentId seg = kern.createSegmentNow("heap", 4096, 256, 1,
                                              &manager);
        Process proc("p", 1);
        std::vector<sim::Task<>> touches;
        for (PageIndex p = 0; p < 32; ++p)
            touches.push_back(kern.touchSegment(proc, seg, p * 3 % 96,
                                                AccessType::Write));
        runTask(s, sim::joinAll(s, std::move(touches)));
        std::string why;
        EXPECT_TRUE(kern.checkFrameInvariant(&why)) << why;
        std::vector<PageIndex> present;
        for (const auto &[pg, e] : kern.segment(seg).pages())
            present.push_back(pg);
        return present;
    };
    EXPECT_EQ(run(false), run(true));
}

// ----------------------------------------------------------------------
// Property test: frame conservation under random migration traffic
// ----------------------------------------------------------------------

class MigrationChaos : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(MigrationChaos, FrameInvariantHolds)
{
    sim::Simulation s;
    hw::MachineConfig m = smallMachine();
    m.memoryBytes = 1 << 20; // 256 frames
    Kernel kern(s, m);
    sim::Random rng(GetParam());

    std::vector<SegmentId> segs{kPhysSegment};
    for (int i = 0; i < 6; ++i) {
        segs.push_back(kern.createSegmentNow(
            "s" + std::to_string(i), 4096, 256, kSystemUser));
    }

    std::uint64_t attempts = 0, performed = 0;
    for (int iter = 0; iter < 2000; ++iter) {
        SegmentId src = segs[rng.below(segs.size())];
        SegmentId dst = segs[rng.below(segs.size())];
        PageIndex sp = rng.below(256);
        PageIndex dp = rng.below(256);
        std::uint64_t n = 1 + rng.below(4);
        ++attempts;
        try {
            kern.migratePagesNow(src, dst, sp, dp, n,
                                 rng.below(2) ? flag::kDirty : 0,
                                 rng.below(2) ? flag::kReferenced : 0);
            ++performed;
        } catch (const KernelError &) {
            // Invalid moves are expected; invariant must still hold.
        }
        if (iter % 100 == 0) {
            std::string why;
            ASSERT_TRUE(kern.checkFrameInvariant(&why))
                << "iter " << iter << ": " << why;
        }
    }
    std::string why;
    ASSERT_TRUE(kern.checkFrameInvariant(&why)) << why;
    // The workload must actually exercise migration.
    EXPECT_GT(performed, 50u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MigrationChaos,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

} // namespace
} // namespace vpp::kernel
