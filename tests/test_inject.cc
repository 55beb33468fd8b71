/**
 * @file
 * Tests for the fault-injection engine (vpp::inject) and the kernel's
 * resilience machinery it exercises: deterministic per-layer streams,
 * disk error/retry accounting, fault redelivery with deadlines,
 * failover to the default manager with unilateral frame reclamation,
 * reclaim storms, and the golden-identity property (a disabled engine
 * is indistinguishable from no engine at all).
 */

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "apps/stack.h"
#include "core/kernel.h"
#include "hw/disk.h"
#include "inject/inject.h"
#include "managers/default_mgr.h"
#include "managers/generic.h"
#include "managers/spcm.h"
#include "uio/file_server.h"
#include "uio/paging.h"

namespace vpp::inject {
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

// ----------------------------------------------------------------------
// Engine
// ----------------------------------------------------------------------

TEST(Engine, SameSeedSameDecisionSequence)
{
    Config c;
    c.enabled = true;
    c.seed = 99;
    c.disk.readErrorProb = 0.3;
    c.manager.stallProb = 0.2;
    c.manager.crashProb = 0.2;
    c.manager.lieProb = 0.2;
    c.pressure.stormProb = 0.3;
    c.pressure.stormFrames = 8;

    Engine a(c), b(c);
    for (int i = 0; i < 200; ++i) {
        EXPECT_EQ(a.diskReadError(), b.diskReadError());
        EXPECT_EQ(a.managerAction(), b.managerAction());
        EXPECT_EQ(a.reclaimStorm(), b.reclaimStorm());
    }
    EXPECT_EQ(a.stats().readErrors, b.stats().readErrors);
    EXPECT_EQ(a.stats().crashes, b.stats().crashes);
    EXPECT_EQ(a.stats().storms, b.stats().storms);
}

TEST(Engine, DisabledEngineDecidesNothing)
{
    Config c;
    c.enabled = false; // master switch off, every prob at maximum
    c.disk.readErrorProb = 1.0;
    c.disk.writeErrorProb = 1.0;
    c.disk.latencySpikeProb = 1.0;
    c.manager.stallProb = 1.0;
    c.pressure.stormProb = 1.0;
    c.pressure.stormFrames = 64;

    Engine e(c);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(e.diskReadError());
        EXPECT_FALSE(e.diskWriteError());
        EXPECT_EQ(e.diskLatencySpike(), 0);
        EXPECT_EQ(e.managerAction(), ManagerAction::None);
        EXPECT_EQ(e.reclaimStorm(), 0u);
    }
    EXPECT_EQ(e.stats().readErrors, 0u);
    EXPECT_EQ(e.stats().stalls, 0u);
    EXPECT_EQ(e.stats().storms, 0u);
}

TEST(Engine, LayersDrawFromIndependentStreams)
{
    // Enabling disk faults must not shift the manager-action sequence:
    // each layer has its own stream.
    Config mgr_only;
    mgr_only.enabled = true;
    mgr_only.seed = 7;
    mgr_only.manager.stallProb = 0.3;
    mgr_only.manager.crashProb = 0.3;

    Config both = mgr_only;
    both.disk.readErrorProb = 0.5;
    both.disk.latencySpikeProb = 0.5;

    Engine a(mgr_only), b(both);
    for (int i = 0; i < 200; ++i) {
        b.diskReadError(); // interleave disk draws on b only
        b.diskLatencySpike();
        EXPECT_EQ(a.managerAction(), b.managerAction());
    }
}

// ----------------------------------------------------------------------
// Disk layer
// ----------------------------------------------------------------------

TEST(DiskInjection, ErrorChargedAtIssue)
{
    // The failed read still occupied the device: reads()/bytesRead()
    // are charged when the operation is issued, before the error
    // verdict arrives with the completion interrupt.
    sim::Simulation s;
    hw::Disk disk(s, msec(15), 1.0);

    Config c;
    c.enabled = true;
    c.seed = 5;
    c.disk.readErrorProb = 1.0;
    Engine eng(c);
    disk.setInjector(&eng);

    EXPECT_THROW(runTask(s, disk.read(4096)), hw::DiskError);
    EXPECT_EQ(disk.reads(), 1u);
    EXPECT_EQ(disk.bytesRead(), 4096u);
    EXPECT_EQ(disk.errors(), 1u);
    EXPECT_GT(disk.busyTime(), 0);
}

TEST(DiskInjection, PagingRetriesUntilExhaustion)
{
    // Every transfer fails: pageIn retries kMaxIoRetries times with
    // backoff, then surfaces KernelErrc::IoError; both the kernel and
    // the disk account each attempt.
    sim::Simulation s;
    kernel::Kernel kern(s, smallMachine());
    hw::Disk disk(s, msec(15), 1.0);
    uio::FileServer server(s, disk, usec(200));
    uio::FileId f = server.createFile("data", 64 * 4096);

    kernel::SegmentId seg =
        kern.createSegmentNow("buf", 4096, 16, kernel::kSystemUser);
    kern.migratePagesNow(kernel::kPhysSegment, seg, 0, 0, 1,
                         kernel::flag::kReadable |
                             kernel::flag::kWritable,
                         0);

    Config c;
    c.enabled = true;
    c.seed = 5;
    c.disk.readErrorProb = 1.0;
    Engine eng(c);
    disk.setInjector(&eng);

    try {
        runTask(s, uio::pageIn(kern, server, f, 0, seg, 0));
        FAIL() << "pageIn should exhaust its retries";
    } catch (const kernel::KernelError &e) {
        EXPECT_EQ(e.code(), kernel::KernelErrc::IoError);
    }
    EXPECT_EQ(kern.stats().ioErrors,
              static_cast<std::uint64_t>(uio::kMaxIoRetries));
    EXPECT_EQ(kern.stats().ioRetries,
              static_cast<std::uint64_t>(uio::kMaxIoRetries - 1));
    EXPECT_EQ(disk.errors(),
              static_cast<std::uint64_t>(uio::kMaxIoRetries));
    EXPECT_EQ(disk.retries(),
              static_cast<std::uint64_t>(uio::kMaxIoRetries - 1));
}

TEST(DiskInjection, PagingRetryRecoversFromTransientError)
{
    // The first transfer fails, then the fault clears (the injector is
    // detached while the retry backoff elapses): pageIn succeeds and
    // records exactly one error and one retry.
    sim::Simulation s;
    kernel::Kernel kern(s, smallMachine());
    hw::Disk disk(s, msec(15), 1.0);
    uio::FileServer server(s, disk, usec(200));
    uio::FileId f = server.createFile("data", 64 * 4096);

    kernel::SegmentId seg =
        kern.createSegmentNow("buf", 4096, 16, kernel::kSystemUser);
    kern.migratePagesNow(kernel::kPhysSegment, seg, 0, 0, 1,
                         kernel::flag::kReadable |
                             kernel::flag::kWritable,
                         0);

    Config c;
    c.enabled = true;
    c.seed = 5;
    c.disk.readErrorProb = 1.0;
    Engine eng(c);
    disk.setInjector(&eng);
    // One full transfer takes ~19 ms (latency + 4 KB at 1 MB/s); the
    // retry waits kIoRetryBackoff first, so detaching at 20 ms lands
    // between the first failure and the second attempt.
    s.schedule(msec(20), [&disk] { disk.setInjector(nullptr); });

    runTask(s, uio::pageIn(kern, server, f, 0, seg, 0));
    EXPECT_EQ(kern.stats().ioErrors, 1u);
    EXPECT_EQ(kern.stats().ioRetries, 1u);
    EXPECT_EQ(disk.errors(), 1u);
    EXPECT_EQ(disk.retries(), 1u);
}

// ----------------------------------------------------------------------
// Manager layer: redelivery, deadline, failover
// ----------------------------------------------------------------------

struct ResilienceRig
{
    explicit ResilienceRig(bool coalesce = false)
        : kern(s, machine(coalesce)), spcm(kern, std::nullopt),
          flaky(kern, "flaky", hw::ManagerMode::SameProcess, &spcm, 1),
          fallback(kern, "fallback", hw::ManagerMode::SameProcess,
                   &spcm, kernel::kSystemUser),
          proc("p", 1)
    {
        flaky.initNow(128, 64);
        fallback.initNow(128, 64);
        seg = kern.createSegmentNow("app", 4096, 64, 1, &flaky);
    }

    static hw::MachineConfig
    machine(bool coalesce)
    {
        hw::MachineConfig m = smallMachine();
        m.faultCoalescing = coalesce;
        return m;
    }

    kernel::ResiliencePolicy
    policy(int redeliveries, sim::Duration deadline, bool failover)
    {
        kernel::ResiliencePolicy p;
        p.enabled = true;
        p.faultDeadline = deadline;
        p.maxRedeliveries = redeliveries;
        p.retryBackoff = usec(100);
        p.failover = failover;
        return p;
    }

    sim::Simulation s;
    kernel::Kernel kern;
    mgr::SystemPageCacheManager spcm;
    mgr::GenericSegmentManager flaky;
    mgr::GenericSegmentManager fallback;
    kernel::Process proc;
    kernel::SegmentId seg = 0;
};

TEST(Resilience, StallWithinDeadlineResolves)
{
    ResilienceRig r;
    r.kern.setResiliencePolicy(r.policy(3, msec(300), false));

    Config c;
    c.enabled = true;
    c.seed = 11;
    c.manager.stallProb = 1.0;
    c.manager.stallTime = msec(200);
    Engine eng(c);
    r.kern.setInjector(&eng);

    runTask(r.s, r.kern.touchSegment(r.proc, r.seg, 0,
                                     kernel::AccessType::Write));
    const auto &st = r.kern.stats();
    EXPECT_EQ(st.injectedStalls, 1u);
    EXPECT_EQ(st.faultTimeouts, 0u);
    EXPECT_EQ(st.faultRedeliveries, 0u);
    EXPECT_GE(st.faultLatencyMax, msec(200));
}

TEST(Resilience, ResolvedFaultCancelsItsDeadline)
{
    // The attempt resolves long before its 120 ms deadline, which is
    // then cancelled: the run ends when the fault completes, and no
    // dead deadline event fires afterwards.
    ResilienceRig r;
    r.kern.setResiliencePolicy(r.policy(3, msec(120), false));
    sim::SimTime resolved = -1;
    r.s.spawn([](ResilienceRig &rig, sim::SimTime *at) -> sim::Task<> {
        co_await rig.kern.touchSegment(rig.proc, rig.seg, 0,
                                       kernel::AccessType::Write);
        *at = rig.s.now();
    }(r, &resolved));
    const sim::SimTime end = r.s.run();
    EXPECT_EQ(r.kern.stats().faults, 1u);
    EXPECT_EQ(r.kern.stats().faultTimeouts, 0u);
    EXPECT_GT(resolved, 0);
    EXPECT_LT(resolved, msec(120));
    EXPECT_EQ(end, resolved);
}

TEST(Resilience, UnresponsiveManagerWithoutFailoverThrows)
{
    // Every attempt stalls past the deadline and redelivery is
    // exhausted before any stalled attempt wakes: with failover off
    // the kernel reports the manager unresponsive.
    ResilienceRig r;
    r.kern.setResiliencePolicy(r.policy(2, msec(50), false));

    Config c;
    c.enabled = true;
    c.seed = 11;
    c.manager.stallProb = 1.0;
    c.manager.stallTime = msec(500);
    Engine eng(c);
    r.kern.setInjector(&eng);

    try {
        runTask(r.s, r.kern.touchSegment(r.proc, r.seg, 0,
                                         kernel::AccessType::Write));
        FAIL() << "expected ManagerUnresponsive";
    } catch (const kernel::KernelError &e) {
        EXPECT_EQ(e.code(), kernel::KernelErrc::ManagerUnresponsive);
    }
    const auto &st = r.kern.stats();
    EXPECT_EQ(st.faultTimeouts, 3u);   // initial attempt + 2 retries
    EXPECT_EQ(st.faultRedeliveries, 2u);
    EXPECT_EQ(r.flaky.faultTimeouts(), 3u);
    // Drain the stalled attempts; exactly one installs the page, the
    // later ones see the fault resolved and step aside.
    r.s.run();
    std::string why;
    EXPECT_TRUE(r.kern.checkFrameInvariant(&why)) << why;
}

TEST(Resilience, CrashFailoverReclaimsAndReassigns)
{
    ResilienceRig r;
    r.kern.setDefaultManager(&r.fallback);
    r.kern.setResiliencePolicy(r.policy(1, msec(50), true));

    // Build up clean, reclaimable state before the campaign starts.
    for (kernel::PageIndex p = 0; p < 4; ++p)
        runTask(r.s, r.kern.touchSegment(r.proc, r.seg, p,
                                         kernel::AccessType::Read));

    Config c;
    c.enabled = true;
    c.seed = 3;
    c.manager.crashProb = 1.0;
    Engine eng(c);
    r.kern.setInjector(&eng);

    runTask(r.s, r.kern.touchSegment(r.proc, r.seg, 10,
                                     kernel::AccessType::Read));
    const auto &st = r.kern.stats();
    EXPECT_EQ(st.failovers, 1u);
    EXPECT_EQ(st.managerCrashes, 2u); // initial attempt + 1 retry
    EXPECT_EQ(r.flaky.crashes(), 2u);
    EXPECT_EQ(r.flaky.failovers(), 1u);
    // The kernel took the clean pages away from the crashing manager
    // and the segment now belongs to the default manager — for this
    // fault and all future ones.
    EXPECT_EQ(st.framesReclaimed, 4u);
    EXPECT_EQ(r.kern.segment(r.seg).manager(), &r.fallback);
    EXPECT_TRUE(r.kern.segment(r.seg).findPage(10) != nullptr);

    const std::uint64_t fallback_calls = r.fallback.calls();
    runTask(r.s, r.kern.touchSegment(r.proc, r.seg, 0,
                                     kernel::AccessType::Read));
    EXPECT_GT(r.fallback.calls(), fallback_calls);
    std::string why;
    EXPECT_TRUE(r.kern.checkFrameInvariant(&why)) << why;
}

TEST(Resilience, LyingManagerFailsOverAfterRedelivery)
{
    // A lying handler returns "resolved" without doing anything;
    // the kernel's resolution check catches it every time and the
    // fault eventually fails over.
    ResilienceRig r;
    r.kern.setDefaultManager(&r.fallback);
    r.kern.setResiliencePolicy(r.policy(2, msec(50), true));

    Config c;
    c.enabled = true;
    c.seed = 17;
    c.manager.lieProb = 1.0;
    Engine eng(c);
    r.kern.setInjector(&eng);

    runTask(r.s, r.kern.touchSegment(r.proc, r.seg, 0,
                                     kernel::AccessType::Write));
    const auto &st = r.kern.stats();
    EXPECT_EQ(st.injectedLies, 3u); // initial attempt + 2 retries
    EXPECT_EQ(st.faultRedeliveries, 2u);
    EXPECT_EQ(st.failovers, 1u);
    EXPECT_TRUE(r.kern.segment(r.seg).findPage(0) != nullptr);
}

// ----------------------------------------------------------------------
// Batched delivery under resilience and injection
// ----------------------------------------------------------------------

/**
 * Resolves the first two faults of its first batch and then crashes;
 * later batches are handled in full. Records every batch's size.
 */
class HalfwayCrashManager : public mgr::GenericSegmentManager
{
  public:
    using GenericSegmentManager::GenericSegmentManager;

    sim::Task<>
    handleFaults(kernel::Kernel &k,
                 std::span<const kernel::Fault> fs) override
    {
        sizes.push_back(fs.size());
        if (sizes.size() == 1) {
            co_await handleFault(k, fs[0]);
            co_await handleFault(k, fs[1]);
            throw std::runtime_error("crashed mid-batch");
        }
        co_await GenericSegmentManager::handleFaults(k, fs);
    }

    std::vector<std::size_t> sizes;
};

TEST(Resilience, PartlyResolvedBatchRedeliversOnlyTheRest)
{
    sim::Simulation s;
    kernel::Kernel kern(s, ResilienceRig::machine(true));
    mgr::SystemPageCacheManager spcm(kern, std::nullopt);
    HalfwayCrashManager crasher(kern, "crasher",
                                hw::ManagerMode::SameProcess, &spcm, 1);
    crasher.initNow(128, 64);
    kernel::SegmentId seg =
        kern.createSegmentNow("app", 4096, 64, 1, &crasher);
    kern.setResiliencePolicy(kernel::ResiliencePolicy{.enabled = true});
    kernel::Process proc("p", 1);

    std::vector<sim::Task<>> touches;
    for (kernel::PageIndex p = 0; p < 5; ++p)
        touches.push_back(kern.touchSegment(proc, seg, p,
                                            kernel::AccessType::Write));
    runTask(s, sim::joinAll(s, std::move(touches)));

    const auto &st = kern.stats();
    EXPECT_EQ(st.faultBatches, 1u);
    EXPECT_EQ(st.managerCrashes, 1u);
    EXPECT_EQ(st.faultRedeliveries, 3u);
    EXPECT_EQ(crasher.sizes, (std::vector<std::size_t>{5, 3}));
    EXPECT_EQ(crasher.pagesAllocated(), 5u);
    std::string why;
    EXPECT_TRUE(kern.checkFrameInvariant(&why)) << why;
}

TEST(Resilience, BatchFailoverReassignsEverySegmentOnce)
{
    ResilienceRig r(true);
    kernel::SegmentId other =
        r.kern.createSegmentNow("other", 4096, 64, 1, &r.flaky);
    r.kern.setDefaultManager(&r.fallback);
    r.kern.setResiliencePolicy(r.policy(1, msec(50), true));

    // Clean, reclaimable state on both segments.
    for (kernel::PageIndex p = 0; p < 2; ++p) {
        runTask(r.s, r.kern.touchSegment(r.proc, r.seg, p,
                                         kernel::AccessType::Read));
        runTask(r.s, r.kern.touchSegment(r.proc, other, p,
                                         kernel::AccessType::Read));
    }

    Config c;
    c.enabled = true;
    c.seed = 3;
    c.manager.crashProb = 1.0;
    Engine eng(c);
    r.kern.setInjector(&eng);

    std::vector<sim::Task<>> touches;
    touches.push_back(r.kern.touchSegment(r.proc, r.seg, 10,
                                          kernel::AccessType::Read));
    touches.push_back(r.kern.touchSegment(r.proc, other, 10,
                                          kernel::AccessType::Read));
    runTask(r.s, sim::joinAll(r.s, std::move(touches)));

    const auto &st = r.kern.stats();
    EXPECT_EQ(st.faultBatches, 5u); // 4 warm-up faults + the pair
    EXPECT_EQ(st.managerCrashes, 2u); // initial attempt + 1 retry
    EXPECT_EQ(st.faultRedeliveries, 2u);
    EXPECT_EQ(st.failovers, 1u);
    EXPECT_EQ(r.flaky.failovers(), 1u);
    // One sweep took the four clean pages of both segments.
    EXPECT_EQ(st.framesReclaimed, 4u);
    for (kernel::SegmentId id : {r.seg, other}) {
        EXPECT_EQ(r.kern.segment(id).manager(), &r.fallback);
        EXPECT_TRUE(r.kern.segment(id).findPage(10) != nullptr);
    }
    std::string why;
    EXPECT_TRUE(r.kern.checkFrameInvariant(&why)) << why;
}

/** Three same-instant faults on distinct pages: one batch. */
sim::Task<>
touchThreePages(ResilienceRig &r)
{
    std::vector<sim::Task<>> touches;
    for (kernel::PageIndex p = 0; p < 3; ++p)
        touches.push_back(r.kern.touchSegment(r.proc, r.seg, p,
                                              kernel::AccessType::Write));
    co_await sim::joinAll(r.s, std::move(touches));
}

TEST(Resilience, BatchedLiesCountAttemptsAndRedeliveriesCountFaults)
{
    ResilienceRig r(true);
    r.kern.setDefaultManager(&r.fallback);
    r.kern.setResiliencePolicy(r.policy(2, msec(50), true));

    Config c;
    c.enabled = true;
    c.seed = 17;
    c.manager.lieProb = 1.0;
    Engine eng(c);
    r.kern.setInjector(&eng);

    runTask(r.s, touchThreePages(r));
    const auto &st = r.kern.stats();
    EXPECT_EQ(st.faultBatches, 1u);
    EXPECT_EQ(st.injectedLies, 3u); // initial attempt + 2 retries
    EXPECT_EQ(st.faultRedeliveries, 6u); // 2 retries x 3 faults
    EXPECT_EQ(st.failovers, 1u);
    for (kernel::PageIndex p = 0; p < 3; ++p)
        EXPECT_TRUE(r.kern.segment(r.seg).findPage(p) != nullptr);
}

TEST(Resilience, BatchedStallsCountAttempts)
{
    ResilienceRig r(true);
    r.kern.setResiliencePolicy(r.policy(2, msec(50), false));

    Config c;
    c.enabled = true;
    c.seed = 11;
    c.manager.stallProb = 1.0;
    c.manager.stallTime = msec(500);
    Engine eng(c);
    r.kern.setInjector(&eng);

    try {
        runTask(r.s, touchThreePages(r));
        FAIL() << "expected ManagerUnresponsive";
    } catch (const kernel::KernelError &e) {
        EXPECT_EQ(e.code(), kernel::KernelErrc::ManagerUnresponsive);
    }
    const auto &st = r.kern.stats();
    EXPECT_EQ(st.injectedStalls, 3u);
    EXPECT_EQ(st.faultTimeouts, 3u);
    EXPECT_EQ(st.faultRedeliveries, 6u);
    // The stalled attempts wake, and each page is installed once.
    r.s.run();
    EXPECT_EQ(r.flaky.pagesAllocated(), 3u);
    std::string why;
    EXPECT_TRUE(r.kern.checkFrameInvariant(&why)) << why;
}

// ----------------------------------------------------------------------
// Lifetimes of an attempt's race with its deadline
// ----------------------------------------------------------------------

/** Injection that stalls every external attempt for 500 ms. */
Config
stallEveryAttempt()
{
    Config c;
    c.enabled = true;
    c.seed = 11;
    c.manager.stallProb = 1.0;
    c.manager.stallTime = msec(500);
    return c;
}

TEST(FaultRace, ParkedFaultSurvivesTeardownInEitherOrder)
{
    // The run ends while a fault waits on its first attempt, which a
    // stall holds inside the handler, with the attempt's 50-ms
    // deadline still pending. The engine destroys the delivery's and
    // the attempt's frames and the deadline's callback unfired; none
    // may touch another, the kernel or a manager, whether the engine
    // goes before or after them.
    for (bool simFirst : {true, false}) {
        SCOPED_TRACE(simFirst);
        auto s = std::make_unique<sim::Simulation>();
        auto kern = std::make_unique<kernel::Kernel>(*s, smallMachine());
        auto spcm = std::make_unique<mgr::SystemPageCacheManager>(
            *kern, std::nullopt);
        auto flaky = std::make_unique<mgr::GenericSegmentManager>(
            *kern, "flaky", hw::ManagerMode::SameProcess, spcm.get(), 1);
        flaky->initNow(128, 64);
        const kernel::SegmentId seg =
            kern->createSegmentNow("app", 4096, 64, 1, flaky.get());
        kernel::ResiliencePolicy pol;
        pol.enabled = true;
        pol.faultDeadline = msec(50);
        pol.maxRedeliveries = 2;
        pol.failover = false;
        kern->setResiliencePolicy(pol);
        auto eng = std::make_unique<Engine>(stallEveryAttempt());
        kern->setInjector(eng.get());
        kernel::Process proc("p", 1);

        bool touched = false;
        s->spawn([](kernel::Kernel &k, kernel::Process &p,
                    kernel::SegmentId sg, bool *done) -> sim::Task<> {
            co_await k.touchSegment(p, sg, 0, kernel::AccessType::Write);
            *done = true;
        }(*kern, proc, seg, &touched));
        s->runUntil(msec(20));
        EXPECT_FALSE(touched);
        EXPECT_EQ(s->liveTasks(), 2); // the touch and its attempt
        EXPECT_EQ(kern->stats().injectedStalls, 1u);
        EXPECT_EQ(kern->stats().faultTimeouts, 0u);

        auto dropMachine = [&] {
            flaky.reset();
            spcm.reset();
            kern.reset();
            eng.reset();
        };
        if (simFirst) {
            s.reset();
            dropMachine();
        } else {
            dropMachine();
            s.reset();
        }
    }
}

TEST(FaultRace, StalledAttemptOutlivesItsDelivery)
{
    // Every attempt stalls past its deadline and redelivery runs out
    // first, so the delivery throws ManagerUnresponsive, and its frame
    // goes, while all three attempts still run. Each deadline cut its
    // attempt loose, so an attempt that finishes later reports
    // nowhere; the first to wake installs the page and the others
    // find the fault resolved.
    ResilienceRig r;
    r.kern.setResiliencePolicy(r.policy(2, msec(50), false));
    Engine eng(stallEveryAttempt());
    r.kern.setInjector(&eng);

    sim::SimTime threw = -1;
    r.s.spawn([](ResilienceRig &rig, sim::SimTime *at) -> sim::Task<> {
        try {
            co_await rig.kern.touchSegment(rig.proc, rig.seg, 0,
                                           kernel::AccessType::Write);
        } catch (const kernel::KernelError &e) {
            if (e.code() == kernel::KernelErrc::ManagerUnresponsive)
                *at = rig.s.now();
        }
    }(r, &threw));
    const sim::SimTime end = r.s.run();
    EXPECT_GT(threw, msec(150));
    EXPECT_LT(threw, msec(200));
    EXPECT_GT(end, threw + msec(400)); // the last attempt's stall
    EXPECT_EQ(r.s.liveTasks(), 0);
    const auto &st = r.kern.stats();
    EXPECT_EQ(st.injectedStalls, 3u);
    EXPECT_EQ(st.faultTimeouts, 3u);
    EXPECT_EQ(st.managerCrashes, 0u);
    EXPECT_EQ(r.flaky.pagesAllocated(), 1u);
    EXPECT_NE(r.kern.segment(r.seg).findPage(0), nullptr);
    std::string why;
    EXPECT_TRUE(r.kern.checkFrameInvariant(&why)) << why;
}

/** What one seeded composed run leaves behind (compared across reruns). */
struct ComposedOutcome
{
    sim::SimTime end = 0;
    int touches = 0;
    bool invariantOk = false;
    std::uint64_t faults = 0, batches = 0, managerCalls = 0,
                  timeouts = 0, redeliveries = 0, failovers = 0,
                  crashes = 0, stalls = 0, lies = 0, reclaimed = 0;

    bool operator==(const ComposedOutcome &) const = default;
};

sim::Task<>
composedProcess(kernel::Kernel &k, kernel::Process &proc,
                const std::vector<kernel::SegmentId> &segs,
                std::uint64_t seed, int *touches)
{
    sim::Random rng(seed);
    for (int i = 0; i < 24; ++i) {
        // Staggered think time, so batches vary in size.
        co_await k.simulation().delay(usec(rng.below(4) * 100));
        kernel::SegmentId seg = segs[rng.below(segs.size())];
        kernel::PageIndex page =
            static_cast<kernel::PageIndex>(rng.below(48));
        kernel::AccessType a = rng.chance(0.5)
                                   ? kernel::AccessType::Write
                                   : kernel::AccessType::Read;
        co_await k.touchSegment(proc, seg, page, a);
        ++*touches;
    }
}

/**
 * 8 processes on 3 segments, with coalescing, resilience and a 10 %
 * chance each of a stall, crash or lie per crossing to the segments'
 * manager.
 */
ComposedOutcome
composedRun(hw::ManagerMode mode, std::uint64_t seed)
{
    ResilienceRig r(true);
    mgr::GenericSegmentManager flaky(r.kern, "flaky3", mode, &r.spcm, 1);
    flaky.initNow(256, 64);
    std::vector<kernel::SegmentId> segs;
    for (int i = 0; i < 3; ++i)
        segs.push_back(r.kern.createSegmentNow(
            "s" + std::to_string(i), 4096, 48, 1, &flaky));
    r.kern.setDefaultManager(&r.fallback);
    r.kern.setResiliencePolicy(r.policy(2, msec(50), true));

    Config c;
    c.enabled = true;
    c.seed = seed;
    c.manager.stallProb = 0.10;
    c.manager.crashProb = 0.10;
    c.manager.lieProb = 0.10;
    c.manager.stallTime = msec(80);
    Engine eng(c);
    r.kern.setInjector(&eng);

    ComposedOutcome o;
    std::vector<std::unique_ptr<kernel::Process>> procs;
    std::vector<sim::Task<>> runs;
    for (std::uint64_t i = 0; i < 8; ++i) {
        procs.push_back(std::make_unique<kernel::Process>(
            "p" + std::to_string(i), 1));
        runs.push_back(composedProcess(r.kern, *procs.back(), segs,
                                       seed * 16 + i, &o.touches));
    }
    // runTask drains the queue, so stalled attempts and deadline
    // callbacks have played out by now.
    runTask(r.s, sim::joinAll(r.s, std::move(runs)));
    o.end = r.s.now();
    o.invariantOk = r.kern.checkFrameInvariant();
    const auto &st = r.kern.stats();
    o.faults = st.faults;
    o.batches = st.faultBatches;
    o.managerCalls = st.managerCalls;
    o.timeouts = st.faultTimeouts;
    o.redeliveries = st.faultRedeliveries;
    o.failovers = st.failovers;
    o.crashes = st.managerCrashes;
    o.stalls = st.injectedStalls;
    o.lies = st.injectedLies;
    o.reclaimed = st.framesReclaimed;
    return o;
}

/** Seeds 1-5: every touch completes, and a rerun matches exactly. */
void
expectComposedRunsCompleteAndRepeat(hw::ManagerMode mode)
{
    std::uint64_t injected = 0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const ComposedOutcome o = composedRun(mode, seed);
        EXPECT_EQ(o.touches, 8 * 24) << "seed " << seed;
        EXPECT_TRUE(o.invariantOk) << "seed " << seed;
        EXPECT_GT(o.batches, 0u) << "seed " << seed;
        EXPECT_EQ(composedRun(mode, seed), o) << "seed " << seed;
        injected += o.timeouts + o.crashes + o.lies;
    }
    EXPECT_GT(injected, 0u);
}

TEST(ComposedChaos, SameProcessRunsCompleteAndRepeat)
{
    expectComposedRunsCompleteAndRepeat(hw::ManagerMode::SameProcess);
}

TEST(ComposedChaos, SeparateProcessRunsCompleteAndRepeat)
{
    expectComposedRunsCompleteAndRepeat(hw::ManagerMode::SeparateProcess);
}

// ----------------------------------------------------------------------
// Memory-pressure layer
// ----------------------------------------------------------------------

TEST(Pressure, ReclaimStormForcesClientsToSurrender)
{
    sim::Simulation s;
    kernel::Kernel kern(s, smallMachine());
    mgr::SystemPageCacheManager spcm(kern, std::nullopt);
    mgr::GenericSegmentManager hoarder(
        kern, "hoarder", hw::ManagerMode::SameProcess, &spcm, 1);
    hoarder.initNow(64, 32);

    Config c;
    c.enabled = true;
    c.seed = 23;
    c.pressure.stormProb = 1.0;
    c.pressure.stormFrames = 8;
    Engine eng(c);
    spcm.setInjector(&eng);

    mgr::ClientId probe = spcm.registerClient("probe", 2, 0.0);
    kernel::SegmentId dst =
        kern.createSegmentNow("dst", 4096, 8, 2);
    std::uint64_t got =
        runTask(s, spcm.requestPages(probe, dst, {0, 1, 2, 3}));

    EXPECT_EQ(got, 4u);
    EXPECT_EQ(spcm.stormsTriggered(), 1u);
    EXPECT_EQ(hoarder.freePages(), 24u); // surrendered 8 of 32
    std::string why;
    EXPECT_TRUE(kern.checkFrameInvariant(&why)) << why;
}

// ----------------------------------------------------------------------
// Golden identity: disabled == absent
// ----------------------------------------------------------------------

sim::Task<>
goldenWorkload(apps::VppStack &st, kernel::SegmentId seg)
{
    kernel::Process proc("app", 1);
    sim::Random rng(404);
    for (int i = 0; i < 200; ++i) {
        kernel::PageIndex page =
            static_cast<kernel::PageIndex>(rng.below(64));
        kernel::AccessType a = rng.chance(0.5)
                                   ? kernel::AccessType::Write
                                   : kernel::AccessType::Read;
        co_await st.kern.touchSegment(proc, seg, page, a);
    }
    co_await st.ucds.clockPass(16);
}

TEST(GoldenIdentity, DisabledEngineMatchesAbsentEngine)
{
    // An attached-but-disabled engine must be a structural no-op:
    // identical simulated time, fault counts and disk activity as no
    // engine at all — this is what keeps every committed baseline
    // byte-identical.
    auto run = [](bool attach_disabled_engine) {
        hw::MachineConfig m = smallMachine();
        apps::VppStack st(m);
        st.kern.setResiliencePolicy(kernel::ResiliencePolicy{
            .enabled = true});

        Config c;
        c.enabled = false;
        c.disk.readErrorProb = 1.0; // would be chaos if consulted
        c.manager.stallProb = 1.0;
        c.pressure.stormProb = 1.0;
        c.pressure.stormFrames = 64;
        Engine eng(c);
        if (attach_disabled_engine) {
            st.disk.setInjector(&eng);
            st.kern.setInjector(&eng);
            st.spcm.setInjector(&eng);
        }

        uio::FileId f = st.server.createFile("g", 64 * 4096);
        kernel::SegmentId seg = runTask(st.sim, st.ucds.openFile(f));
        runTask(st.sim, goldenWorkload(st, seg));
        return std::tuple(st.sim.now(), st.kern.stats().faults,
                          st.disk.reads(), st.disk.busyTime());
    };

    EXPECT_EQ(run(false), run(true));
}

TEST(GoldenIdentity, DisabledEngineMatchesAbsentEngineCoalesced)
{
    // The same identity with batched delivery: a disabled engine draws
    // nothing per crossing either.
    auto run = [](bool attach_disabled_engine) {
        hw::MachineConfig m = smallMachine();
        m.faultCoalescing = true;
        apps::VppStack st(m);
        st.kern.setResiliencePolicy(kernel::ResiliencePolicy{
            .enabled = true});

        Config c;
        c.enabled = false;
        c.disk.readErrorProb = 1.0;
        c.manager.stallProb = 1.0;
        c.pressure.stormProb = 1.0;
        c.pressure.stormFrames = 64;
        Engine eng(c);
        if (attach_disabled_engine) {
            st.disk.setInjector(&eng);
            st.kern.setInjector(&eng);
            st.spcm.setInjector(&eng);
        }

        uio::FileId f = st.server.createFile("g", 64 * 4096);
        kernel::SegmentId seg = runTask(st.sim, st.ucds.openFile(f));
        runTask(st.sim, goldenWorkload(st, seg));
        return std::tuple(st.sim.now(), st.kern.stats().faults,
                          st.kern.stats().faultBatches, st.disk.reads(),
                          st.disk.busyTime());
    };

    EXPECT_EQ(run(false), run(true));
}

} // namespace
} // namespace vpp::inject
