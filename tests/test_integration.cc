/**
 * @file
 * Whole-stack integration tests: the §2.2 swapping protocol, manager
 * self-residency, multiprogramming under memory pressure with the
 * clock and the market, multiple page sizes end to end, a
 * randomized stress test of the full manager/SPCM/kernel loop, and
 * the allocation-free steady-state fault path.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "apps/stack.h"
#include "appmgr/swap_mgr.h"
#include "core/kernel.h"
#include "inject/inject.h"
#include "sim/mem_accounting.h"
#include "sim/random.h"

namespace vpp {
namespace {

using kernel::AccessType;
using kernel::runTask;
using sim::usec;
namespace flag = kernel::flag;

// ----------------------------------------------------------------------
// Swapping protocol (§2.2)
// ----------------------------------------------------------------------

class SwapTest : public ::testing::Test
{
  protected:
    SwapTest() : stack(machineConfig()) {}

    static hw::MachineConfig
    machineConfig()
    {
        hw::MachineConfig m = hw::decstation5000_200();
        m.memoryBytes = 32 << 20;
        return m;
    }

    apps::VppStack stack;
};

TEST_F(SwapTest, RoundTripPreservesData)
{
    uio::FileId swap = stack.server.createFile("swap", 0);
    appmgr::SwappableAppManager mgr(stack.kern, &stack.spcm, 1,
                                    stack.server, swap, &stack.ucds);
    mgr.initNow(4096, 256);
    kernel::Process proc("app", 1);

    kernel::SegmentId data =
        runTask(stack.sim, mgr.createAppSegment("data", 64));
    for (kernel::PageIndex p = 0; p < 32; ++p) {
        runTask(stack.sim, stack.kern.touchSegment(
                               proc, data, p, AccessType::Write));
    }
    std::string payload = "survives the swap";
    stack.kern.writePageData(
        data, 7, 100,
        std::as_bytes(std::span(payload.data(), payload.size())));

    std::uint64_t spcm_free0 = stack.spcm.freeFrames();
    runTask(stack.sim, mgr.swapOut(proc));
    EXPECT_TRUE(mgr.swappedOut());
    EXPECT_EQ(stack.kern.segment(data).presentPages(), 0u);
    EXPECT_GT(stack.spcm.freeFrames(), spcm_free0); // frames returned
    EXPECT_GT(mgr.pagesSwapped(), 0u);
    EXPECT_GT(stack.disk.writes(), 0u); // dirty pages hit the disk

    runTask(stack.sim, mgr.swapIn(proc, /*eager=*/false));
    EXPECT_FALSE(mgr.swappedOut());

    // Lazy reload: the touch faults and restores from swap.
    runTask(stack.sim, stack.kern.touchSegment(proc, data, 7,
                                               AccessType::Read));
    char buf[32] = {};
    stack.kern.readPageData(
        data, 7, 100,
        std::as_writable_bytes(std::span(buf, payload.size())));
    EXPECT_EQ(std::string(buf), payload);
    EXPECT_GT(mgr.pagesRestored(), 0u);

    std::string why;
    EXPECT_TRUE(stack.kern.checkFrameInvariant(&why)) << why;
}

TEST_F(SwapTest, EagerSwapInRestoresEverything)
{
    uio::FileId swap = stack.server.createFile("swap", 0);
    appmgr::SwappableAppManager mgr(stack.kern, &stack.spcm, 1,
                                    stack.server, swap, &stack.ucds);
    mgr.initNow(4096, 256);
    kernel::Process proc("app", 1);
    kernel::SegmentId data =
        runTask(stack.sim, mgr.createAppSegment("data", 16));
    for (kernel::PageIndex p = 0; p < 16; ++p) {
        runTask(stack.sim, stack.kern.touchSegment(
                               proc, data, p, AccessType::Write));
    }
    runTask(stack.sim, mgr.swapOut(proc));
    runTask(stack.sim, mgr.swapIn(proc, /*eager=*/true));
    EXPECT_EQ(mgr.pagesRestored(), 16u);
    EXPECT_EQ(stack.kern.segment(data).presentPages(), 16u);
}

TEST_F(SwapTest, SelfManagementProtocolPinsManagerPages)
{
    uio::FileId swap = stack.server.createFile("swap", 0);
    appmgr::SwappableAppManager mgr(stack.kern, &stack.spcm, 1,
                                    stack.server, swap, &stack.ucds);
    mgr.initNow(4096, 256);
    kernel::Process proc("app", 1);

    // The manager's own code+data: a segment initially under the
    // default manager.
    kernel::SegmentId self = runTask(
        stack.sim, stack.ucds.createAnonymous("mgr-self", 8, 1));
    int attempts = runTask(
        stack.sim, mgr.assumeSelfManagement(proc, self, 8));
    EXPECT_GE(attempts, 1);
    EXPECT_EQ(stack.kern.segment(self).manager(), &mgr);
    for (kernel::PageIndex p = 0; p < 8; ++p) {
        const kernel::PageEntry *e =
            stack.kern.segment(self).findPage(p);
        ASSERT_NE(e, nullptr);
        EXPECT_TRUE(e->flags & flag::kPinned);
    }

    // After swap-out the self segment belongs to the default manager
    // again, unpinned.
    runTask(stack.sim, mgr.swapOut(proc));
    EXPECT_EQ(stack.kern.segment(self).manager(), &stack.ucds);

    // Resumption re-runs the protocol and re-pins.
    runTask(stack.sim, mgr.swapIn(proc));
    EXPECT_EQ(stack.kern.segment(self).manager(), &mgr);
}

// ----------------------------------------------------------------------
// Nested fault delivery (§2.2: faults on manager data)
// ----------------------------------------------------------------------

namespace {

/**
 * A manager whose fill path reads from a *pageable* lookup table
 * managed by another manager — handling one fault can therefore raise
 * a second, nested fault that the other manager must resolve first
 * (the paper's first option for manager code/data: "managed by
 * another manager, such as the default segment manager").
 */
class NestingManager : public mgr::GenericSegmentManager
{
  public:
    NestingManager(kernel::Kernel &k, mgr::SystemPageCacheManager *spcm,
                   kernel::Process &self, kernel::SegmentId table)
        : GenericSegmentManager(k, "nesting-mgr",
                                hw::ManagerMode::SameProcess, spcm, 1),
          self_(&self), table_(table)
    {}

    std::uint64_t nestedTouches = 0;

  protected:
    sim::Task<>
    fillPage(kernel::Kernel &k, const kernel::Fault &f,
             kernel::PageIndex dst_page,
             kernel::PageIndex free_slot) override
    {
        (void)f;
        (void)free_slot;
        // Consult the lookup table: may fault to the other manager.
        co_await k.touchSegment(*self_, table_, dst_page % 4,
                                kernel::AccessType::Read);
        ++nestedTouches;
    }

  private:
    kernel::Process *self_;
    kernel::SegmentId table_;
};

} // namespace

TEST(NestedFaults, ManagerFaultingOnItsOwnDataIsServiced)
{
    hw::MachineConfig m = hw::decstation5000_200();
    m.memoryBytes = 16 << 20;
    apps::VppStack stack(m);
    kernel::Process proc("app", 1);

    // The lookup table lives under the default manager and starts
    // entirely non-resident.
    kernel::SegmentId table = kernel::runTask(
        stack.sim, stack.ucds.createAnonymous("lookup", 4, 1));

    NestingManager nm(stack.kern, &stack.spcm, proc, table);
    nm.initNow(512, 64);
    kernel::SegmentId data =
        stack.kern.createSegmentNow("data", 4096, 16, 1, &nm);

    std::uint64_t ucds_calls0 = stack.ucds.calls();
    for (kernel::PageIndex p = 0; p < 8; ++p) {
        kernel::runTask(stack.sim,
                        stack.kern.touchSegment(
                            proc, data, p, AccessType::Write));
    }
    // All eight primary faults resolved...
    EXPECT_EQ(stack.kern.segment(data).presentPages(), 8u);
    EXPECT_EQ(nm.nestedTouches, 8u);
    // ...and the nested faults went to the default manager (4 table
    // pages, faulted once each).
    EXPECT_EQ(stack.ucds.calls() - ucds_calls0, 4u);
    EXPECT_EQ(stack.kern.segment(table).presentPages(), 4u);

    std::string why;
    EXPECT_TRUE(stack.kern.checkFrameInvariant(&why)) << why;
}

// ----------------------------------------------------------------------
// Multiprogramming: two programs, one memory, clock + market
// ----------------------------------------------------------------------

TEST(Multiprogramming, ClockStealsFromIdleProgramUnderPressure)
{
    hw::MachineConfig m = hw::decstation5000_200();
    m.memoryBytes = 8 << 20; // 2048 frames, deliberately tight
    apps::StackOptions opts;
    opts.ucdsPoolCapacity = 4096;
    opts.ucdsInitialFrames = 1536;
    apps::VppStack stack(m, opts);
    kernel::Process pa("hog", 1), pb("newcomer", 2);

    kernel::SegmentId hog = runTask(
        stack.sim, stack.ucds.createAnonymous("hog", 1400, 1));
    for (kernel::PageIndex p = 0; p < 1400; ++p) {
        runTask(stack.sim, stack.kern.touchSegment(
                               pa, hog, p, AccessType::Write));
    }

    // Age the hog twice so its pages look cold, then reclaim.
    runTask(stack.sim, stack.ucds.clockPass(0));
    std::uint64_t reclaimed =
        runTask(stack.sim, stack.ucds.clockPass(600));
    EXPECT_EQ(reclaimed, 600u);

    // The newcomer can now fault its working set in.
    kernel::SegmentId fresh = runTask(
        stack.sim, stack.ucds.createAnonymous("fresh", 512, 2));
    for (kernel::PageIndex p = 0; p < 512; ++p) {
        runTask(stack.sim, stack.kern.touchSegment(
                               pb, fresh, p, AccessType::Write));
    }
    EXPECT_EQ(stack.kern.segment(fresh).presentPages(), 512u);

    std::string why;
    EXPECT_TRUE(stack.kern.checkFrameInvariant(&why)) << why;
}

TEST(Multiprogramming, CrossUserReallocationZeroesFrames)
{
    hw::MachineConfig m = hw::decstation5000_200();
    m.memoryBytes = 8 << 20;
    apps::VppStack stack(m);
    kernel::Process pa("alice", 1), pb("bob", 2);

    kernel::SegmentId sa = runTask(
        stack.sim, stack.ucds.createAnonymous("alice-heap", 8, 1));
    runTask(stack.sim,
            stack.kern.touchSegment(pa, sa, 0, AccessType::Write));
    stack.kern.writePageData(sa, 0, 0,
                             std::as_bytes(std::span("secret", 6)));
    // Alice's page is reclaimed and her segment destroyed.
    runTask(stack.sim, stack.kern.destroySegment(sa));
    std::uint64_t zeroes0 = stack.kern.stats().zeroFills;

    // Bob's manager hands him frames; any frame last used by alice
    // must be zeroed somewhere along the way before bob reads it.
    kernel::SegmentId sb = runTask(
        stack.sim, stack.ucds.createAnonymous("bob-heap", 64, 2));
    for (kernel::PageIndex p = 0; p < 64; ++p) {
        runTask(stack.sim,
                stack.kern.touchSegment(pb, sb, p, AccessType::Read));
        char buf[8] = {};
        stack.kern.readPageData(
            sb, p, 0, std::as_writable_bytes(std::span(buf, 6)));
        EXPECT_EQ(std::memcmp(buf, "secret", 6) == 0, false);
    }
    (void)zeroes0;
}

// ----------------------------------------------------------------------
// Multiple page sizes end to end
// ----------------------------------------------------------------------

TEST(MultiPageSize, LargePageSegmentBackedBySmallFramePool)
{
    sim::Simulation s;
    hw::MachineConfig m = hw::decstation5000_200();
    m.memoryBytes = 16 << 20;
    kernel::Kernel kern(s, m);

    // A 16 KB-page segment (Alpha-style): each page takes 4 aligned
    // contiguous frames from the physical segment.
    kernel::SegmentId big =
        kern.createSegmentNow("big-pages", 16384, 64, 1);
    for (int i = 0; i < 8; ++i) {
        kern.migratePagesNow(kernel::kPhysSegment, big,
                             static_cast<kernel::PageIndex>(i) * 4, i,
                             4, flag::kProtMask, 0);
    }
    EXPECT_EQ(kern.segment(big).presentPages(), 8u);

    // Data written across a 16 KB page round-trips through the
    // underlying 4 KB frames.
    std::vector<std::byte> blob(16384);
    for (std::size_t i = 0; i < blob.size(); ++i)
        blob[i] = static_cast<std::byte>(i * 7 % 253);
    kern.writePageData(big, 3, 0, blob);
    std::vector<std::byte> back(16384);
    kern.readPageData(big, 3, 0, back);
    EXPECT_EQ(std::memcmp(back.data(), blob.data(), blob.size()), 0);

    // Split one large page back into 4 KB pages; data follows frames.
    kernel::SegmentId small =
        kern.createSegmentNow("small", 4096, 256, 1);
    EXPECT_EQ(kern.migratePagesNow(big, small, 3, 0, 1, 0, 0), 4u);
    std::vector<std::byte> quarter(4096);
    kern.readPageData(small, 1, 0, quarter);
    EXPECT_EQ(std::memcmp(quarter.data(), blob.data() + 4096, 4096),
              0);

    std::string why;
    EXPECT_TRUE(kern.checkFrameInvariant(&why)) << why;
}

// ----------------------------------------------------------------------
// Randomized whole-stack stress (property test)
// ----------------------------------------------------------------------

class StackStress : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(StackStress, InvariantsSurviveChaoticWorkload)
{
    hw::MachineConfig m = hw::decstation5000_200();
    m.memoryBytes = 16 << 20;
    apps::StackOptions opts;
    opts.ucdsPoolCapacity = 8192;
    opts.ucdsInitialFrames = 1024;
    apps::VppStack stack(m, opts);
    sim::Random rng(GetParam());
    kernel::Process proc("chaos", 1);

    std::vector<kernel::SegmentId> segs;
    std::vector<uio::FileId> files;
    for (int step = 0; step < 400; ++step) {
        double dice = rng.uniform();
        try {
            if (dice < 0.15 && segs.size() < 12) {
                segs.push_back(runTask(
                    stack.sim,
                    stack.ucds.createAnonymous(
                        "anon" + std::to_string(step),
                        16 + rng.below(64), 1)));
            } else if (dice < 0.25 && files.size() < 6) {
                uio::FileId f = stack.server.createFile(
                    "f" + std::to_string(step),
                    4096 * (1 + rng.below(32)));
                runTask(stack.sim, stack.ucds.openFile(f));
                files.push_back(f);
            } else if (dice < 0.65 && !segs.empty()) {
                kernel::SegmentId seg = segs[rng.below(segs.size())];
                kernel::PageIndex page = rng.below(
                    stack.kern.segment(seg).pageLimit());
                runTask(stack.sim,
                        stack.kern.touchSegment(
                            proc, seg, page,
                            rng.chance(0.5) ? AccessType::Write
                                            : AccessType::Read));
            } else if (dice < 0.80 && !files.empty()) {
                uio::FileId f = files[rng.below(files.size())];
                std::vector<std::byte> buf(1 + rng.below(9000));
                std::uint64_t off = rng.below(32) * 1024;
                if (rng.chance(0.5)) {
                    runTask(stack.sim,
                            stack.io.read(proc, f, off, buf));
                } else {
                    runTask(stack.sim,
                            stack.io.write(proc, f, off, buf));
                }
            } else if (dice < 0.88) {
                runTask(stack.sim,
                        stack.ucds.clockPass(rng.below(64)));
            } else if (dice < 0.94 && !segs.empty()) {
                std::size_t i = rng.below(segs.size());
                runTask(stack.sim,
                        stack.kern.destroySegment(segs[i]));
                segs.erase(segs.begin() + i);
            } else if (!files.empty()) {
                std::size_t i = rng.below(files.size());
                runTask(stack.sim, stack.ucds.closeFile(files[i]));
                files.erase(files.begin() + i);
            }
        } catch (const kernel::KernelError &) {
            // Invalid random operations are fine; state must stay
            // consistent regardless.
        }
        if (step % 50 == 0) {
            std::string why;
            ASSERT_TRUE(stack.kern.checkFrameInvariant(&why))
                << "step " << step << ": " << why;
        }
    }
    std::string why;
    ASSERT_TRUE(stack.kern.checkFrameInvariant(&why)) << why;
    // The workload must have exercised real activity.
    EXPECT_GT(stack.kern.stats().faults, 100u);
    EXPECT_GT(stack.kern.stats().pagesMigrated, 100u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StackStress,
                         ::testing::Values(11, 23, 47, 89, 179));

// ----------------------------------------------------------------------
// Fault injection end to end
// ----------------------------------------------------------------------

TEST(InjectionE2E, WorkloadSurvivesFaultyManagerAndDisk)
{
    // The paper's safety claim, end to end: with an application
    // manager that stalls, crashes and lies, and a disk that throws
    // transient errors, every access still completes — redelivery and
    // failover keep the machine running, and the frame invariant
    // holds throughout.
    hw::MachineConfig m = hw::decstation5000_200();
    m.memoryBytes = 32 << 20;
    apps::VppStack stack(m);

    mgr::DefaultSegmentManager app_mgr(stack.kern, &stack.spcm,
                                       stack.server, stack.registry);
    app_mgr.initNow(1024, 128);
    stack.kern.setDefaultManager(&stack.ucds);
    kernel::ResiliencePolicy pol;
    pol.enabled = true;
    pol.faultDeadline = sim::msec(120);
    pol.maxRedeliveries = 2;
    pol.retryBackoff = sim::msec(1);
    stack.kern.setResiliencePolicy(pol);

    inject::Config ic;
    ic.enabled = true;
    ic.seed = 2026;
    ic.disk.readErrorProb = 0.02;
    ic.disk.writeErrorProb = 0.02;
    ic.disk.latencySpikeProb = 0.02;
    ic.manager.stallProb = 0.20;
    ic.manager.crashProb = 0.20;
    ic.manager.lieProb = 0.10;
    inject::Engine eng(ic);
    stack.disk.setInjector(&eng);
    stack.kern.setInjector(&eng);
    stack.spcm.setInjector(&eng);

    uio::FileId f = stack.server.createFile("data", 256 * 4096);
    kernel::SegmentId seg =
        runTask(stack.sim, app_mgr.openFile(f));
    kernel::Process proc("app", 1);
    sim::Random rng(7);
    int completed = 0;
    for (int i = 0; i < 400; ++i) {
        kernel::PageIndex p =
            static_cast<kernel::PageIndex>(rng.below(256));
        AccessType a =
            rng.chance(0.25) ? AccessType::Write : AccessType::Read;
        runTask(stack.sim,
                stack.kern.touchSegment(proc, seg, p, a));
        ++completed;
        if (i % 100 == 99) {
            std::string why;
            ASSERT_TRUE(stack.kern.checkFrameInvariant(&why))
                << "access " << i << ": " << why;
        }
    }
    EXPECT_EQ(completed, 400);
    const auto &st = stack.kern.stats();
    EXPECT_GT(st.injectedStalls + st.injectedLies + st.managerCrashes,
              0u);
    EXPECT_GT(st.faultRedeliveries, 0u);
    std::string why;
    EXPECT_TRUE(stack.kern.checkFrameInvariant(&why)) << why;
}

// ----------------------------------------------------------------------
// Steady-state fault path: no heap allocation
// ----------------------------------------------------------------------

/**
 * One vm_fault_churn chunk: 25 transactions of 24 touches (a quarter
 * of them writes), each transaction on the next file, then
 * clockPass(192).
 */
sim::Task<>
churnChunk(kernel::Kernel &k, mgr::DefaultSegmentManager &m,
           kernel::Process &proc, const std::vector<kernel::SegmentId> &segs,
           sim::Random &rng, std::uint64_t &txns)
{
    for (int t = 0; t < 25; ++t, ++txns) {
        const kernel::SegmentId seg = segs[txns % segs.size()];
        for (int j = 0; j < 24; ++j) {
            const auto page =
                static_cast<kernel::PageIndex>(rng.below(512));
            co_await k.touchSegment(proc, seg, page,
                                    rng.chance(0.25) ? AccessType::Write
                                                     : AccessType::Read);
        }
    }
    co_await m.clockPass(192);
}

/**
 * The e2ebench vm_fault_churn machine: a separate-process default
 * manager holding 512 frames for four 512-page files, with the
 * kernel's deadline and redelivery policy on.
 */
struct ChurnMachine
{
    ChurnMachine() : m(st.kern, &st.spcm, st.server, st.registry)
    {
        m.initNow(4096, 512);
        st.kern.setDefaultManager(&st.ucds);
        kernel::ResiliencePolicy pol;
        pol.enabled = true;
        pol.faultDeadline = sim::msec(120);
        pol.maxRedeliveries = 3;
        pol.retryBackoff = sim::msec(1);
        st.kern.setResiliencePolicy(pol);
        for (int i = 0; i < 4; ++i) {
            uio::FileId f =
                st.server.createFile("f" + std::to_string(i), 512 * 4096);
            segs.push_back(runTask(st.sim, m.openFile(f)));
        }
    }

    void
    chunks(int n)
    {
        for (int c = 0; c < n; ++c)
            runTask(st.sim, churnChunk(st.kern, m, proc, segs, rng, txns));
    }

    /** The first page of the first file without a frame. */
    kernel::PageIndex
    missingPage() const
    {
        const kernel::Segment &seg = st.kern.segment(segs[0]);
        kernel::PageIndex p = 0;
        while (seg.findPage(p))
            ++p;
        return p;
    }

    /** Its first page a clock pass left without access. */
    kernel::PageIndex
    sampledPage() const
    {
        const kernel::Segment &seg = st.kern.segment(segs[0]);
        for (kernel::PageIndex p = 0;; ++p) {
            const kernel::PageEntry *e = seg.findPage(p);
            if (e && !(e->flags & flag::kReadable))
                return p;
        }
    }

    apps::VppStack st{hw::decstation5000_200()};
    mgr::DefaultSegmentManager m;
    std::vector<kernel::SegmentId> segs;
    kernel::Process proc{"p", 1};
    sim::Random rng{1};
    std::uint64_t txns = 0;
};

TEST(FaultPath, SteadyStateFaultsAllocateNothing)
{
    if (!sim::mem::hooksActive())
        GTEST_SKIP() << "heap accounting compiled out";
    ChurnMachine cm;
    // Warm up past the one-time growth. The manager's pool takes its
    // last SPCM grant in chunk 14 (a refill still allocates: the SPCM
    // request path takes std::vector). For this seed a new page-table
    // leaf or vector high-water mark comes last in chunk 42, and next
    // in chunk 169, after the window.
    cm.chunks(48);

    const std::uint64_t faults = cm.st.kern.stats().faults;
    const std::uint64_t grants = cm.st.spcm.grantsServed();
    const std::uint64_t allocs = sim::mem::threadAllocations();
    cm.chunks(16);
    const std::uint64_t window = sim::mem::threadAllocations() - allocs;
    EXPECT_GT(cm.st.kern.stats().faults - faults, 3000u);
    EXPECT_EQ(cm.st.spcm.grantsServed(), grants);
    EXPECT_EQ(window, 0u);
}

/**
 * Frame-pool blocks handed out while the touch of (@p seg, @p page)
 * runs to completion inside one task.
 */
std::uint64_t
touchBlocks(sim::Simulation &s, kernel::Kernel &k, kernel::Process &proc,
            kernel::SegmentId seg, kernel::PageIndex page, AccessType a)
{
    std::uint64_t blocks = 0;
    runTask(s, [](kernel::Kernel &kern, kernel::Process &p,
                  kernel::SegmentId sg, kernel::PageIndex pg,
                  AccessType acc, std::uint64_t *out) -> sim::Task<> {
        const std::uint64_t b0 = sim::threadFrameBlocks();
        co_await kern.touchSegment(p, sg, pg, acc);
        *out = sim::threadFrameBlocks() - b0;
    }(k, proc, seg, page, a, &blocks));
    return blocks;
}

TEST(FaultPath, FaultFramesOnlyWhereItWaits)
{
    // The churn machine, warmed as in SteadyStateFaultsAllocateNothing.
    // A frame is built only where the fault waits; resident touches,
    // leaf kernel calls (charges, MigratePages, ModifyPageFlags), the
    // default hooks, the batch of one, the attempt's race with its
    // deadline, the slot run and a one-frame page's buffer build none.
    ChurnMachine cm;
    cm.chunks(48);

    // One fault of each kind the workload raises, after a clock pass.
    // A sampling fault on a page the pass left without access takes 7
    // blocks: the fault loop and deliverBatch frames, the resilient
    // attempt's root and frame, the crossing, handleFault and
    // handleProtection. A missing page filled from its file drops
    // handleProtection and adds fillPage, pageIn, the I/O retry loop
    // and the disk transfer: 10.
    const kernel::PageIndex missing = cm.missingPage();
    const kernel::PageIndex sampled = cm.sampledPage();
    const kernel::Kernel::Stats before = cm.st.kern.stats();
    const std::uint64_t reads = cm.st.disk.reads();
    const std::uint64_t missingBlocks =
        touchBlocks(cm.st.sim, cm.st.kern, cm.proc, cm.segs[0], missing,
                    AccessType::Read);
    const std::uint64_t sampledBlocks =
        touchBlocks(cm.st.sim, cm.st.kern, cm.proc, cm.segs[0], sampled,
                    AccessType::Read);
    EXPECT_EQ(cm.st.kern.stats().missingFaults - before.missingFaults, 1u);
    EXPECT_EQ(cm.st.kern.stats().protectionFaults -
                  before.protectionFaults,
              1u);
    EXPECT_EQ(cm.st.disk.reads() - reads, 1u);
    EXPECT_EQ(missingBlocks, 10u);
    EXPECT_EQ(sampledBlocks, 7u);

    // Over 16 whole chunks, clock passes included: at most 5 blocks
    // per touch, where 43 % of touches fault.
    const std::uint64_t faults = cm.st.kern.stats().faults;
    const std::uint64_t b0 = sim::threadFrameBlocks();
    cm.chunks(16);
    const std::uint64_t blocks = sim::threadFrameBlocks() - b0;
    const std::uint64_t touches = 16 * 25 * 24;
    EXPECT_GT(cm.st.kern.stats().faults - faults, 3000u);
    EXPECT_LE(blocks, 5 * touches)
        << static_cast<double>(blocks) / touches << " blocks per touch";
}

/** What one touch, run alone on an idle engine, did. */
struct TouchRecord
{
    std::uint64_t events = 0;  ///< events the engine ran
    sim::Duration elapsed = 0; ///< simulated time to the touch's end
    sim::SimTime runEnd = 0;   ///< where the drained engine stopped
    std::uint64_t diskReads = 0;
    std::uint64_t diskWrites = 0;
    std::uint64_t migrates = 0; ///< MigratePages calls
    std::uint64_t pagesMigrated = 0;
};

TouchRecord
recordTouch(apps::VppStack &st, kernel::Process &proc,
            kernel::SegmentId seg, kernel::PageIndex page, AccessType a)
{
    const std::uint64_t e0 = st.sim.eventsRun();
    const std::uint64_t r0 = st.disk.reads();
    const std::uint64_t w0 = st.disk.writes();
    const kernel::Kernel::Stats k0 = st.kern.stats();
    const sim::SimTime t0 = st.sim.now();
    sim::SimTime done = -1;
    st.sim.spawn([](kernel::Kernel &k, kernel::Process &p,
                    kernel::SegmentId sg, kernel::PageIndex pg,
                    AccessType acc, sim::Simulation &s,
                    sim::SimTime *at) -> sim::Task<> {
        co_await k.touchSegment(p, sg, pg, acc);
        *at = s.now();
    }(st.kern, proc, seg, page, a, st.sim, &done));
    TouchRecord r;
    r.runEnd = st.sim.run() - t0;
    r.events = st.sim.eventsRun() - e0;
    r.elapsed = done - t0;
    r.diskReads = st.disk.reads() - r0;
    r.diskWrites = st.disk.writes() - w0;
    r.migrates = st.kern.stats().migrateCalls - k0.migrateCalls;
    r.pagesMigrated = st.kern.stats().pagesMigrated - k0.pagesMigrated;
    return r;
}

TEST(FaultPathEvents, MissingAndSamplingFaultEvents)
{
    // The churn machine with its deadline policy, warmed as in
    // SteadyStateFaultsAllocateNothing; one fault of each kind the
    // workload raises runs alone on the idle engine. Its 120-ms
    // deadline is withdrawn when the attempt finishes, so the run ends
    // with the touch.
    ChurnMachine cm;
    cm.chunks(48);
    const kernel::PageIndex missing = cm.missingPage();
    const kernel::PageIndex sampled = cm.sampledPage();
    const kernel::Kernel::Stats before = cm.st.kern.stats();

    // A missing page filled from its file: 9 events. The trap, the
    // crossing's send, the manager's allocation charge, the page-in's
    // request overhead and disk transfer, the kernel copy, the
    // MigratePages call, the reply and the attempt's report to the
    // waiting delivery, which resumes the touch.
    const TouchRecord fill = recordTouch(cm.st, cm.proc, cm.segs[0],
                                         missing, AccessType::Read);
    EXPECT_EQ(fill.events, 9u);
    EXPECT_EQ(fill.elapsed, 18'807'000);
    EXPECT_EQ(fill.runEnd, fill.elapsed);
    EXPECT_EQ(fill.diskReads, 1u);
    EXPECT_EQ(fill.diskWrites, 0u);
    EXPECT_EQ(fill.migrates, 1u);
    EXPECT_EQ(fill.pagesMigrated, 1u);

    // A sampling fault on a page the clock pass left without access:
    // 5 events. The trap, the send, ModifyPageFlags re-enabling the
    // page, the reply and the attempt's report; no disk, no migration.
    const TouchRecord sample = recordTouch(cm.st, cm.proc, cm.segs[0],
                                           sampled, AccessType::Read);
    EXPECT_EQ(sample.events, 5u);
    EXPECT_EQ(sample.elapsed, 349'000);
    EXPECT_EQ(sample.runEnd, sample.elapsed);
    EXPECT_EQ(sample.diskReads, 0u);
    EXPECT_EQ(sample.diskWrites, 0u);
    EXPECT_EQ(sample.migrates, 0u);

    const kernel::Kernel::Stats &after = cm.st.kern.stats();
    EXPECT_EQ(after.missingFaults - before.missingFaults, 1u);
    EXPECT_EQ(after.protectionFaults - before.protectionFaults, 1u);
    EXPECT_EQ(after.faultTimeouts, before.faultTimeouts);
    EXPECT_EQ(after.faultRedeliveries, before.faultRedeliveries);
}

} // namespace
} // namespace vpp
