/**
 * @file
 * Differential tests for the shared-kernel per-CPU resolve caches:
 * every CpuResolveCache hit is checked against the cache-free
 * binding-chain walk (Kernel::resolve) across the mutation classes
 * that must invalidate it — MigratePages, bind/unbind, flag edits,
 * segment teardown and an injected crash-failover sweep — plus the
 * chain-locality property (mutating an unrelated segment must NOT
 * invalidate), the snapshot-epoch publish protocol, the per-CPU fault
 * in-queues, and byte-identity of the shared-kernel study across
 * worker counts. The oracle itself is checked against the owning
 * segments' page tables after unbind, MigratePages and teardown (the
 * ResolveCache suite: resolve() must never answer from stale state).
 * Suite names (PerCpu*, SharedKernel*) are part of the CI tsan regex.
 */

#include <gtest/gtest.h>

#include <coroutine>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/kernel.h"
#include "db/shared_kernel.h"
#include "inject/inject.h"
#include "managers/generic.h"
#include "managers/spcm.h"
#include "sim/mem_accounting.h"
#include "sim/random.h"
#include "sim/shard.h"

namespace vpp::kernel {
namespace {

using sim::msec;
using sim::usec;

hw::MachineConfig
smallMachine()
{
    hw::MachineConfig m = hw::decstation5000_200();
    m.memoryBytes = 16 << 20; // 4096 frames
    return m;
}

/** A cached per-CPU hit must be indistinguishable from the oracle. */
void
expectMatchesOracle(const CpuResolution &c, const Resolution &o,
                    SegmentId s, PageIndex p)
{
    EXPECT_EQ(c.present, o.present) << "seg " << s << " page " << p;
    EXPECT_EQ(c.seg, o.seg) << "seg " << s << " page " << p;
    EXPECT_EQ(c.page, o.page) << "seg " << s << " page " << p;
    EXPECT_EQ(c.regionProt, o.regionProt)
        << "seg " << s << " page " << p;
    EXPECT_EQ(c.viaCow, o.viaCow) << "seg " << s << " page " << p;
    EXPECT_EQ(c.cowSeg, o.cowSeg) << "seg " << s << " page " << p;
    EXPECT_EQ(c.cowPage, o.cowPage) << "seg " << s << " page " << p;
    ASSERT_TRUE(o.entry != nullptr) << "seg " << s << " page " << p;
    EXPECT_EQ(c.frame, o.entry->frame) << "seg " << s << " page " << p;
    EXPECT_EQ(c.flags, o.entry->flags) << "seg " << s << " page " << p;
}

/**
 * Differential step: whatever CPU @p cpu's cache currently answers
 * for (s, p) must agree with the oracle; then refill and check the
 * steady-state answer. Valid in live mode (strict invalidation).
 */
void
diffProbe(Kernel &k, unsigned cpu, SegmentId s, PageIndex p)
{
    Resolution oracle = k.resolve(s, p);
    if (const CpuResolution *hit = k.cpuResolve(cpu, s, p))
        expectMatchesOracle(*hit, oracle, s, p);
    CpuResolution fresh = k.resolveForCpu(s, p);
    k.cpuStore(cpu, fresh);
    const CpuResolution *again = k.cpuResolve(cpu, s, p);
    if (oracle.present && fresh.chainLen != 0) {
        ASSERT_NE(again, nullptr) << "seg " << s << " page " << p;
        expectMatchesOracle(*again, oracle, s, p);
    } else {
        // Non-present (or uncacheably deep) resolutions are never
        // cached: the probe must keep missing.
        EXPECT_EQ(again, nullptr) << "seg " << s << " page " << p;
    }
}

/** The file <- cow - data <- va chain the differential tests walk. */
struct ChainRig
{
    explicit ChainRig(bool snapshot = false) : kern(s, smallMachine())
    {
        file = kern.createSegmentNow("file", 4096, 256, 0);
        kern.migratePagesNow(kPhysSegment, file, 0, 0, 256, 0, 0);
        data = kern.createSegmentNow("data", 4096, 256, 0);
        kern.bindRegionNow(data, 0, 256, file, 0, flag::kProtMask,
                           true);
        va = kern.createSegmentNow("va", 4096, 256, 0);
        kern.bindRegionNow(va, 0, 256, data, 0, flag::kProtMask);
        kern.configureCpus(2, snapshot);
    }

    void
    warm(unsigned cpu)
    {
        for (PageIndex p = 0; p < 256; ++p)
            kern.cpuStore(cpu, kern.resolveForCpu(va, p));
    }

    sim::Simulation s;
    Kernel kern;
    SegmentId file = 0, data = 0, va = 0;
};

// ----------------------------------------------------------------------
// The oracle itself: resolve() keeps no cache of its own, so every
// mutation must show in its very next answer. Checked against the
// owning segment's page table, not against another walk.
// ----------------------------------------------------------------------

/** resolve(s, p) must land on @p owner's page @p ownerPage entry. */
void
expectResolvesTo(Kernel &k, SegmentId s, PageIndex p, SegmentId owner,
                 PageIndex ownerPage)
{
    Resolution r = k.resolve(s, p);
    ASSERT_TRUE(r.present) << "seg " << s << " page " << p;
    EXPECT_EQ(r.seg, owner) << "seg " << s << " page " << p;
    EXPECT_EQ(r.page, ownerPage) << "seg " << s << " page " << p;
    EXPECT_EQ(r.entry, k.segment(owner).findPage(ownerPage))
        << "seg " << s << " page " << p;
}

TEST(ResolveCache, DifferentialAfterUnbind)
{
    ChainRig r;
    for (PageIndex p = 0; p < 256; ++p)
        expectResolvesTo(r.kern, r.va, p, r.file, p);
    r.kern.unbindRegionNow(r.va, 0);
    for (PageIndex p = 0; p < 256; ++p)
        EXPECT_FALSE(r.kern.resolve(r.va, p).present) << "page " << p;
    // Rebind a shifted window: va[16, 80) -> data[32, 96) -> file.
    r.kern.bindRegionNow(r.va, 16, 64, r.data, 32, flag::kProtMask);
    for (PageIndex p = 0; p < 256; ++p) {
        if (p >= 16 && p < 80)
            expectResolvesTo(r.kern, r.va, p, r.file, p + 16);
        else
            EXPECT_FALSE(r.kern.resolve(r.va, p).present)
                << "page " << p;
    }
}

TEST(ResolveCache, DifferentialAfterMigratePages)
{
    ChainRig r;
    std::vector<hw::FrameId> frames;
    for (PageIndex p = 0; p < 256; ++p)
        frames.push_back(r.kern.resolve(r.va, p).entry->frame);
    SegmentId spare = r.kern.createSegmentNow("spare", 4096, 256, 0);
    // Move frames out of the bound file: va's first 64 pages lose
    // their backing, the rest still reach the file.
    r.kern.migratePagesNow(r.file, spare, 0, 0, 64, 0, 0);
    for (PageIndex p = 0; p < 256; ++p) {
        if (p < 64)
            EXPECT_FALSE(r.kern.resolve(r.va, p).present)
                << "page " << p;
        else
            expectResolvesTo(r.kern, r.va, p, r.file, p);
    }
    // And back again: the same frames are reached once more.
    r.kern.migratePagesNow(spare, r.file, 0, 0, 64, 0, 0);
    for (PageIndex p = 0; p < 256; ++p) {
        expectResolvesTo(r.kern, r.va, p, r.file, p);
        EXPECT_EQ(r.kern.resolve(r.va, p).entry->frame, frames[p])
            << "page " << p;
    }
}

TEST(ResolveCache, DifferentialAfterSegmentTeardown)
{
    ChainRig r;
    // Tear the chain down from the top (the kernel refuses to destroy
    // a segment that is still the target of bound regions).
    runTask(r.s, r.kern.destroySegment(r.va));
    EXPECT_THROW((void)r.kern.resolve(r.va, 0), KernelError);
    for (PageIndex p = 0; p < 256; ++p)
        expectResolvesTo(r.kern, r.data, p, r.file, p);
    runTask(r.s, r.kern.destroySegment(r.data));
    EXPECT_THROW((void)r.kern.resolve(r.data, 0), KernelError);

    // file's frames survive; a fresh segment bound to it reaches them.
    SegmentId va2 = r.kern.createSegmentNow("va2", 4096, 256, 0);
    r.kern.bindRegionNow(va2, 0, 256, r.file, 0, flag::kProtMask);
    for (PageIndex p = 0; p < 256; ++p) {
        expectResolvesTo(r.kern, r.file, p, r.file, p);
        expectResolvesTo(r.kern, va2, p, r.file, p);
    }
}

TEST(PerCpuCache, HitsAreCountedAndAgreeWithOracle)
{
    ChainRig r;
    EXPECT_EQ(r.kern.cpuCount(), 2u);
    EXPECT_EQ(r.kern.cpuResolve(0, r.va, 7), nullptr); // cold miss
    EXPECT_EQ(r.kern.cpuMisses(0), 1u);
    r.kern.cpuStore(0, r.kern.resolveForCpu(r.va, 7));
    const CpuResolution *hit = r.kern.cpuResolve(0, r.va, 7);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(r.kern.cpuHits(0), 1u);
    expectMatchesOracle(*hit, r.kern.resolve(r.va, 7), r.va, 7);
    // CPU 1's cache is its own: still cold.
    EXPECT_EQ(r.kern.cpuResolve(1, r.va, 7), nullptr);
    EXPECT_EQ(r.kern.cpuHits(1), 0u);
}

TEST(PerCpuCache, DifferentialAfterMigratePages)
{
    ChainRig r;
    r.warm(0);
    SegmentId spare = r.kern.createSegmentNow("spare", 4096, 256, 0);
    // Move frames out of the bound file: cached "present at file"
    // entries walked through it and must die with its epoch.
    r.kern.migratePagesNow(r.file, spare, 0, 0, 64, 0, 0);
    for (PageIndex p = 0; p < 64; ++p)
        EXPECT_EQ(r.kern.cpuResolve(0, r.va, p), nullptr)
            << "page " << p << " survived the migrate";
    for (PageIndex p = 0; p < 256; ++p)
        diffProbe(r.kern, 0, r.va, p);
    // And back again.
    r.kern.migratePagesNow(spare, r.file, 0, 0, 64, 0, 0);
    for (PageIndex p = 0; p < 256; ++p)
        diffProbe(r.kern, 0, r.va, p);
}

TEST(PerCpuCache, DifferentialAfterUnbind)
{
    ChainRig r;
    r.warm(0);
    r.kern.unbindRegionNow(r.va, 0);
    for (PageIndex p = 0; p < 256; ++p) {
        EXPECT_EQ(r.kern.cpuResolve(0, r.va, p), nullptr)
            << "page " << p << " survived the unbind";
        diffProbe(r.kern, 0, r.va, p);
    }
    r.kern.bindRegionNow(r.va, 16, 64, r.data, 32, flag::kProtMask);
    for (PageIndex p = 0; p < 256; ++p)
        diffProbe(r.kern, 0, r.va, p);
}

TEST(PerCpuCache, DifferentialAfterFlagEdit)
{
    ChainRig r;
    r.warm(0);
    // Revoke write on a file page: the cached flags are stale.
    r.kern.modifyPageFlagsNow(r.file, 9, 1, 0, flag::kWritable);
    EXPECT_EQ(r.kern.cpuResolve(0, r.va, 9), nullptr);
    diffProbe(r.kern, 0, r.va, 9);
    const CpuResolution *hit = r.kern.cpuResolve(0, r.va, 9);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->flags & flag::kWritable, 0u);
}

TEST(PerCpuCache, DifferentialAfterSegmentTeardown)
{
    ChainRig r;
    r.warm(0);
    runTask(r.s, r.kern.destroySegment(r.va));
    // The dead segment's epoch slot outlives it: any entry chained
    // through va is invalid, and probing the dead id itself misses
    // rather than touching freed state.
    EXPECT_EQ(r.kern.cpuResolve(0, r.va, 0), nullptr);

    for (PageIndex p = 0; p < 256; ++p)
        r.kern.cpuStore(0, r.kern.resolveForCpu(r.data, p));
    runTask(r.s, r.kern.destroySegment(r.data));
    EXPECT_EQ(r.kern.cpuResolve(0, r.data, 0), nullptr);

    // file's frames survive; a fresh segment binding to it must get
    // correct translations, not the dead segments' cached ones.
    SegmentId va2 = r.kern.createSegmentNow("va2", 4096, 256, 0);
    r.kern.bindRegionNow(va2, 0, 256, r.file, 0, flag::kProtMask);
    for (PageIndex p = 0; p < 256; ++p)
        diffProbe(r.kern, 0, va2, p);
}

TEST(PerCpuCache, ChainLocalityUnrelatedMutationKeepsEntries)
{
    // The point of per-segment epochs over a global epoch: faulting
    // into one segment must not flush every CPU's cache of another.
    // A handful of well-spread pages keeps the test clear of the
    // finite cache's replacement behaviour.
    ChainRig r;
    const std::vector<PageIndex> pages = {3, 50, 100, 150, 200};
    for (PageIndex p : pages)
        r.kern.cpuStore(0, r.kern.resolveForCpu(r.va, p));

    SegmentId other = r.kern.createSegmentNow("other", 4096, 64, 0);
    // Phys pages 0-255 went to the rig's file segment; source the
    // unrelated segment from the next run of frames.
    r.kern.migratePagesNow(kPhysSegment, other, 256, 0, 64, 0, 0);
    r.kern.modifyPageFlagsNow(other, 3, 1, 0, flag::kWritable);
    std::uint64_t hitsBefore = r.kern.cpuHits(0);
    for (PageIndex p : pages) {
        const CpuResolution *hit = r.kern.cpuResolve(0, r.va, p);
        ASSERT_NE(hit, nullptr) << "page " << p
                                << " flushed by unrelated mutation";
        expectMatchesOracle(*hit, r.kern.resolve(r.va, p), r.va, p);
    }
    EXPECT_EQ(r.kern.cpuHits(0), hitsBefore + pages.size());

    // Contrast: a mutation on a chain segment invalidates them all.
    r.kern.modifyPageFlagsNow(r.file, 3, 1, flag::kWritable, 0);
    for (PageIndex p : pages)
        EXPECT_EQ(r.kern.cpuResolve(0, r.va, p), nullptr)
            << "page " << p << " survived a chain mutation";
}

TEST(PerCpuCache, DeepChainsAreUncacheable)
{
    sim::Simulation s;
    Kernel kern(s, smallMachine());
    kern.configureCpus(1, false);
    // A 5-segment chain (bottom + 4 binding hops) exceeds
    // kResolveChainMax: resolveForCpu must refuse to package it.
    SegmentId bottom = kern.createSegmentNow("bottom", 4096, 16, 0);
    kern.migratePagesNow(kPhysSegment, bottom, 0, 0, 16, 0, 0);
    SegmentId prev = bottom;
    std::vector<SegmentId> hops;
    for (int i = 0; i < 4; ++i) {
        SegmentId hop = kern.createSegmentNow(
            "hop" + std::to_string(i), 4096, 16, 0);
        kern.bindRegionNow(hop, 0, 16, prev, 0, flag::kProtMask);
        hops.push_back(hop);
        prev = hop;
    }
    // Chain from the top: hop3 -> hop2 -> hop1 -> hop0 -> bottom.
    ASSERT_TRUE(kern.resolve(prev, 3).present);
    CpuResolution deep = kern.resolveForCpu(prev, 3);
    EXPECT_EQ(deep.chainLen, 0u);
    kern.cpuStore(0, deep); // must be ignored
    EXPECT_EQ(kern.cpuResolve(0, prev, 3), nullptr);
    // One level down fits (4 segments) and caches normally.
    CpuResolution ok = kern.resolveForCpu(hops[2], 3);
    EXPECT_EQ(ok.chainLen, 4u);
    kern.cpuStore(0, ok);
    EXPECT_NE(kern.cpuResolve(0, hops[2], 3), nullptr);
}

TEST(PerCpuCache, SnapshotModeStaleUntilPublish)
{
    ChainRig r(/*snapshot=*/true);
    r.kern.publishCpuEpochs();
    r.kern.cpuStore(0, r.kern.resolveForCpu(r.va, 5));
    ASSERT_NE(r.kern.cpuResolve(0, r.va, 5), nullptr);

    // Mutate the chain: live epochs move, the snapshot does not, so
    // the stale entry keeps answering until the next publish — the
    // bounded staleness remote shards see between barriers.
    SegmentId spare = r.kern.createSegmentNow("spare", 4096, 16, 0);
    r.kern.migratePagesNow(r.file, spare, 5, 5, 1, 0, 0);
    EXPECT_NE(r.kern.cpuResolve(0, r.va, 5), nullptr);

    r.kern.publishCpuEpochs();
    EXPECT_EQ(r.kern.cpuResolve(0, r.va, 5), nullptr);
}

TEST(PerCpuCache, SnapshotModeFreshFillConservativeUntilPublish)
{
    ChainRig r(/*snapshot=*/true);
    r.kern.publishCpuEpochs();
    // Mutate first, then fill: the fill records live epoch sums ahead
    // of the snapshot, so the entry stays conservatively invalid...
    SegmentId spare = r.kern.createSegmentNow("spare", 4096, 16, 0);
    r.kern.migratePagesNow(r.file, spare, 7, 7, 1, 0, 0);
    r.kern.migratePagesNow(spare, r.file, 7, 7, 1, 0, 0);
    r.kern.cpuStore(0, r.kern.resolveForCpu(r.va, 7));
    EXPECT_EQ(r.kern.cpuResolve(0, r.va, 7), nullptr);
    // ...until the barrier publish catches the snapshot up.
    r.kern.publishCpuEpochs();
    const CpuResolution *hit = r.kern.cpuResolve(0, r.va, 7);
    ASSERT_NE(hit, nullptr);
    expectMatchesOracle(*hit, r.kern.resolve(r.va, 7), r.va, 7);
}

TEST(PerCpuCache, RandomizedDifferentialStress)
{
    ChainRig r;
    sim::Random rng(1234);
    SegmentId spare = r.kern.createSegmentNow("spare", 4096, 256, 0);
    bool bound = true;
    for (int round = 0; round < 200; ++round) {
        switch (rng.below(4)) {
        case 0: {
            PageIndex at = rng.below(250);
            std::uint64_t n = 1 + rng.below(4);
            try {
                r.kern.migratePagesNow(r.file, spare, at, at, n, 0, 0);
            } catch (const KernelError &) {
            }
            break;
        }
        case 1: {
            PageIndex at = rng.below(250);
            std::uint64_t n = 1 + rng.below(4);
            try {
                r.kern.migratePagesNow(spare, r.file, at, at, n, 0, 0);
            } catch (const KernelError &) {
            }
            break;
        }
        case 2:
            if (bound) {
                r.kern.unbindRegionNow(r.va, 0);
            } else {
                r.kern.bindRegionNow(r.va, 0, 256, r.data, 0,
                                     flag::kProtMask);
            }
            bound = !bound;
            break;
        case 3: {
            PageIndex at = rng.below(256);
            try {
                r.kern.modifyPageFlagsNow(r.file, at, 1, 0,
                                          flag::kWritable);
            } catch (const KernelError &) {
            }
            break;
        }
        }
        // Both CPUs probe independently; every answer must match the
        // oracle at its own probe instant.
        for (int probe = 0; probe < 16; ++probe) {
            unsigned cpu = static_cast<unsigned>(rng.below(2));
            PageIndex p = rng.below(256);
            diffProbe(r.kern, cpu, r.va, p);
            diffProbe(r.kern, cpu, r.file, p);
        }
    }
}

TEST(PerCpuCache, DifferentialAcrossCrashFailoverSweep)
{
    // Failover reassigns the segment's manager and unilaterally
    // reclaims frames mid-run; per-CPU entries must track it.
    sim::Simulation s;
    Kernel kern(s, smallMachine());
    mgr::SystemPageCacheManager spcm(kern, std::nullopt);
    mgr::GenericSegmentManager flaky(
        kern, "flaky", hw::ManagerMode::SameProcess, &spcm, 1);
    mgr::GenericSegmentManager fallback(
        kern, "fallback", hw::ManagerMode::SameProcess, &spcm,
        kSystemUser);
    flaky.initNow(128, 64);
    fallback.initNow(128, 64);
    SegmentId seg = kern.createSegmentNow("app", 4096, 64, 1, &flaky);
    Process proc("p", 1);
    kern.setDefaultManager(&fallback);
    ResiliencePolicy pol;
    pol.enabled = true;
    pol.faultDeadline = msec(50);
    pol.maxRedeliveries = 1;
    pol.retryBackoff = usec(100);
    pol.failover = true;
    kern.setResiliencePolicy(pol);
    kern.configureCpus(1, false);

    for (PageIndex p = 0; p < 4; ++p)
        runTask(s, kern.touchSegment(proc, seg, p, AccessType::Read));
    for (PageIndex p = 0; p < 64; ++p)
        diffProbe(kern, 0, seg, p);

    inject::Config c;
    c.enabled = true;
    c.seed = 3;
    c.manager.crashProb = 1.0;
    inject::Engine eng(c);
    kern.setInjector(&eng);

    runTask(s, kern.touchSegment(proc, seg, 10, AccessType::Read));
    EXPECT_EQ(kern.stats().failovers, 1u);
    EXPECT_EQ(kern.segment(seg).manager(), &fallback);
    for (PageIndex p = 0; p < 64; ++p)
        diffProbe(kern, 0, seg, p);
    std::string why;
    EXPECT_TRUE(kern.checkFrameInvariant(&why)) << why;
}

// ----------------------------------------------------------------------
// Per-CPU fault in-queues
// ----------------------------------------------------------------------

TEST(PerCpuFaultQueue, SameInstantTouchesShareOneBatch)
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
    kern.configureCpus(8, false);
    std::vector<std::unique_ptr<Process>> procs;
    std::vector<sim::Task<>> touches;
    for (unsigned c = 0; c < 8; ++c) {
        procs.push_back(std::make_unique<Process>(
            "cpu" + std::to_string(c), 1));
        touches.push_back(kern.touchOnCpu(
            c, *procs[c], seg, c, AccessType::Write));
    }
    runTask(s, sim::joinAll(s, std::move(touches)));

    const auto &st = kern.stats();
    EXPECT_EQ(st.cpuTouchesQueued, 8u);
    EXPECT_GE(st.cpuDrains, 1u);
    // The drain feeds the coalescing machinery: 8 same-instant CPU
    // faults reach the manager as one batch.
    EXPECT_EQ(st.faultBatches, 1u);
    EXPECT_EQ(st.faultsCoalesced, 8u);
    EXPECT_EQ(manager.calls(), 1u);
    for (PageIndex p = 0; p < 8; ++p)
        EXPECT_TRUE(kern.segment(seg).findPage(p) != nullptr);
    std::string why;
    EXPECT_TRUE(kern.checkFrameInvariant(&why)) << why;
}

/** A generic manager that records the page order of every batch. */
class BatchOrderManager : public mgr::GenericSegmentManager
{
  public:
    using GenericSegmentManager::GenericSegmentManager;

    sim::Task<>
    handleFaults(Kernel &k, std::span<const Fault> fs) override
    {
        auto &pages = batches.emplace_back();
        for (const Fault &f : fs)
            pages.push_back(f.page);
        co_await GenericSegmentManager::handleFaults(k, fs);
    }

    std::vector<std::vector<PageIndex>> batches;
};

TEST(PerCpuFaultQueue, DrainVisitsCpusInIdOrderAcrossMaskWords)
{
    // 130 CPUs span three words of the parked-CPU mask. Each faults on
    // its own page, and they park in descending id order; the batch
    // must still reach the manager in ascending CPU order.
    constexpr unsigned kCpus = 130;
    hw::MachineConfig m = smallMachine();
    m.faultCoalescing = true;
    sim::Simulation s;
    Kernel kern(s, m);
    mgr::SystemPageCacheManager spcm(kern, std::nullopt);
    BatchOrderManager manager(kern, "m", hw::ManagerMode::SameProcess,
                              &spcm, 1);
    manager.initNow(512, 256);
    SegmentId seg = kern.createSegmentNow("heap", 4096, kCpus, 1,
                                          &manager);
    kern.configureCpus(kCpus, false);
    std::vector<std::unique_ptr<Process>> procs;
    std::vector<sim::Task<>> touches;
    for (unsigned c = kCpus; c-- > 0;) {
        procs.push_back(std::make_unique<Process>(
            "cpu" + std::to_string(c), 1));
        touches.push_back(kern.touchOnCpu(c, *procs.back(), seg, c,
                                          AccessType::Write));
    }
    runTask(s, sim::joinAll(s, std::move(touches)));

    std::vector<PageIndex> ascending(kCpus);
    for (unsigned c = 0; c < kCpus; ++c)
        ascending[c] = c;
    ASSERT_EQ(manager.batches.size(), 1u);
    EXPECT_EQ(manager.batches[0], ascending);
    EXPECT_EQ(kern.stats().cpuTouchesQueued, kCpus);
    EXPECT_EQ(kern.stats().cpuDrains, 1u);
}

TEST(PerCpuFaultQueue, UnknownCpuThrows)
{
    sim::Simulation s;
    Kernel kern(s, smallMachine());
    kern.configureCpus(2, false);
    SegmentId seg = kern.createSegmentNow("seg", 4096, 16, 1);
    Process proc("p", 1);
    EXPECT_THROW(
        runTask(s, kern.touchOnCpu(7, proc, seg, 0,
                                   AccessType::Read)),
        KernelError);
    EXPECT_THROW((void)kern.cpuResolve(2, seg, 0), KernelError);
    // A non-present resolution is never stored, but the CPU id is
    // still checked.
    CpuResolution absent = kern.resolveForCpu(seg, 0);
    ASSERT_FALSE(absent.present);
    EXPECT_THROW(kern.cpuStore(2, absent), KernelError);
    EXPECT_THROW((void)kern.cpuHits(2), KernelError);
    EXPECT_THROW((void)kern.cpuMisses(2), KernelError);
}

TEST(PerCpuFaultQueue, ParkedTouchSurvivesTeardownInEitherOrder)
{
    // Two touches parked on CPU in-queues when the run ends, the
    // drain's first pass still queued: one awaited by a coroutine, one
    // parked through the callback form. The engine destroys the
    // coroutine's frame, and the kernel must touch neither parked
    // touch whether it goes first or last.
    for (bool simFirst : {true, false}) {
        auto s = std::make_unique<sim::Simulation>();
        auto kern = std::make_unique<Kernel>(*s, smallMachine());
        kern->configureCpus(2, false);
        SegmentId seg = kern->createSegmentNow("seg", 4096, 4, 1);
        kern->migratePagesNow(kPhysSegment, seg, 0, 0, 4,
                              flag::kReadable | flag::kWritable, 0);
        Process proc("p", 1);
        bool woke = false;
        s->spawn([](Kernel &k, Process &p, SegmentId sg,
                    bool &w) -> sim::Task<> {
            co_await k.touchOnCpu(1, p, sg, 2, AccessType::Read);
            w = true;
        }(*kern, proc, seg, woke));
        bool called = false;
        Kernel::CpuTouch parked =
            kern->touchOnCpu(0, proc, seg, 3, AccessType::Read);
        parked.park([](void *c) { *static_cast<bool *>(c) = true; },
                    &called);
        EXPECT_FALSE(woke);
        EXPECT_EQ(kern->stats().cpuTouchesQueued, 2u);
        EXPECT_EQ(s->liveTasks(), 1); // the touch; the drain is no task
        if (simFirst) {
            s.reset();
            kern.reset();
        } else {
            kern.reset();
            s.reset();
        }
        EXPECT_FALSE(woke);
        EXPECT_FALSE(called);
    }
}

// ----------------------------------------------------------------------
// A CPU's trip to the shared kernel: its events and frames
// ----------------------------------------------------------------------

/**
 * A two-shard machine as the shared-kernel study builds it: the kernel
 * on shard 0, CPU 1 on shard 1, one resident relation, snapshot-mode
 * per-CPU caches published at every epoch. The engine and the kernel
 * are held apart so that a test can tear them down in either order.
 */
struct TripRig
{
    TripRig()
        : engine(std::make_unique<sim::ShardedSimulation>(2, kIpi, 1)),
          kern(std::make_unique<Kernel>(engine->shard(0), smallMachine()))
    {
        kern->configureCpus(2, true);
        seg = kern->createSegmentNow("rel", 4096, 16, 1);
        kern->migratePagesNow(kPhysSegment, seg, 0, 0, 16,
                              flag::kReadable | flag::kWritable, 0);
        engine->setEpochHook([k = kern.get()] { k->publishCpuEpochs(); });
    }

    /** CPU 1's trip for @p page, as the study makes it. */
    db::RemoteTrip trip(PageIndex page) { return tripFor(kCpu, seg, page); }

    /** A read of (@p sg, @p page) by CPU @p cpu, taken as shard 1's. */
    db::RemoteTrip
    tripFor(unsigned cpu, SegmentId sg, PageIndex page)
    {
        return db::RemoteTrip(*engine, 1, kIpi,
                              kern->touchOnCpu(cpu, proc, sg, page,
                                               AccessType::Read));
    }

    static constexpr sim::Duration kIpi = usec(50);
    static constexpr unsigned kCpu = 1;

    std::unique_ptr<sim::ShardedSimulation> engine;
    std::unique_ptr<Kernel> kern;
    SegmentId seg = kInvalidSegment;
    Process proc{"cpu1", 1};
};

TEST(SharedKernelEvents, ResidentRemoteTripRunsSixEvents)
{
    // The CPU starts its trip 1 us into the run (one event of its
    // own), so the request travels as mail. Home shard: the request
    // mail, the drain's first pass, the event that finishes the touch
    // and posts the reply, and the drain's second pass, which finds no
    // touch left. CPU shard: the reply mail and the CPU's wake. One
    // IPI each way, and nothing else.
    TripRig rig;
    bool done = false;
    rig.engine->shard(1).spawn([](TripRig &r, bool &d) -> sim::Task<> {
        co_await r.engine->shard(1).delay(usec(1));
        co_await r.trip(5);
        d = true;
    }(rig, done));
    rig.engine->run();
    EXPECT_TRUE(done);
    EXPECT_EQ(rig.engine->shard(0).eventsRun(), 4u);
    EXPECT_EQ(rig.engine->shard(1).eventsRun(), 1u + 2u);
    EXPECT_EQ(rig.engine->crossEvents(), 2u);
    EXPECT_EQ(rig.engine->shard(0).now(), usec(1) + TripRig::kIpi);
    EXPECT_EQ(rig.engine->shard(1).now(), usec(1) + 2 * TripRig::kIpi);
    EXPECT_EQ(rig.kern->stats().cpuTouchesQueued, 1u);
    EXPECT_EQ(rig.kern->stats().cpuDrains, 1u);
    EXPECT_EQ(rig.kern->stats().faults, 0u);
    EXPECT_TRUE(rig.kern->segment(rig.seg).findPage(5)->flags &
                flag::kReferenced);
    rig.kern->publishCpuEpochs();
    EXPECT_NE(rig.kern->cpuResolve(TripRig::kCpu, rig.seg, 5), nullptr);
}

TEST(SharedKernelEvents, RemoteTripErrorSurfacesFromRun)
{
    // A trip whose touch throws on the home shard: for a CPU the
    // kernel does not know, when the request parks it, and for a
    // segment it does not know, when the drain makes its attempt and
    // the finishing event rethrows. Either way run() rethrows the
    // KernelError, no reply is posted, and the CPU stays parked. The
    // engine and the kernel then go in either order (clean under ASan:
    // the parked frame and the trip in it go with the engine).
    for (bool badCpu : {true, false}) {
        for (bool engineFirst : {true, false}) {
            TripRig rig;
            bool done = false;
            rig.engine->shard(1).spawn(
                [](TripRig &r, bool cpu, bool &d) -> sim::Task<> {
                    co_await r.engine->shard(1).delay(usec(1));
                    if (cpu)
                        co_await r.tripFor(7, r.seg, 0);
                    else
                        co_await r.tripFor(TripRig::kCpu, r.seg + 100, 0);
                    d = true;
                }(rig, badCpu, done));
            EXPECT_THROW(rig.engine->run(), KernelError);
            EXPECT_FALSE(done);
            EXPECT_EQ(rig.engine->shard(1).liveTasks(), 1);
            EXPECT_EQ(rig.engine->crossEvents(), 1u);
            EXPECT_EQ(rig.kern->stats().cpuTouchesQueued,
                      badCpu ? 0u : 1u);
            if (engineFirst) {
                rig.engine.reset();
                rig.kern.reset();
            } else {
                rig.kern.reset();
                rig.engine.reset();
            }
            EXPECT_FALSE(done);
        }
    }
}

db::SharedKernelParams tinyStudy(unsigned workers);

TEST(SharedKernelFrames, ResidentTripBuildsAFixedFew)
{
    // After a warm trip, count the frame-pool blocks of ten more, each
    // started once the last drain has finished. A remote trip takes
    // none: its record lives in the CPU's frame, each mail carries one
    // pointer inline, and the drain and the event that finishes the
    // touch are inline events. A home trip takes none either. The
    // engine's same-instant queue, warm after the first trip, takes
    // none.
    TripRig rig;
    std::uint64_t remote = 0;
    std::uint64_t home = 0;
    rig.engine->shard(1).spawn([](TripRig &r,
                                  std::uint64_t &n) -> sim::Task<> {
        co_await r.engine->shard(1).delay(usec(1));
        co_await r.trip(0);
        const std::uint64_t b0 = sim::threadFrameBlocks();
        for (PageIndex pg = 1; pg <= 10; ++pg)
            co_await r.trip(pg);
        n = sim::threadFrameBlocks() - b0;
    }(rig, remote));
    rig.engine->run();
    rig.engine->shard(0).spawn([](TripRig &r,
                                  std::uint64_t &n) -> sim::Task<> {
        co_await r.engine->shard(0).delay(usec(1));
        co_await r.kern->touchOnCpu(0, r.proc, r.seg, 0, AccessType::Read);
        const std::uint64_t b0 = sim::threadFrameBlocks();
        for (PageIndex pg = 1; pg <= 10; ++pg) {
            co_await r.engine->shard(0).delay(usec(1));
            co_await r.kern->touchOnCpu(0, r.proc, r.seg, pg,
                                        AccessType::Read);
        }
        n = sim::threadFrameBlocks() - b0;
    }(rig, home));
    rig.engine->run();
    EXPECT_EQ(remote, 0u);
    EXPECT_EQ(home, 0u);
    EXPECT_EQ(rig.kern->stats().cpuTouchesQueued, 22u);
    EXPECT_EQ(rig.kern->stats().faults, 0u);

    // The study's own trips, faults included: one seed at two
    // durations, on one thread, so the difference is what the extra
    // trips took: at most 1 block each, all of it the fault path's.
    auto run = [](double sec) {
        db::SharedKernelParams p = tinyStudy(1);
        p.durationSec = sec;
        const std::uint64_t b0 = sim::threadFrameBlocks();
        const db::SharedKernelResult r = db::runSharedKernelStudy(p);
        return std::pair{sim::threadFrameBlocks() - b0, r.kernelTrips};
    };
    const auto [shortBlocks, shortTrips] = run(0.1);
    const auto [longBlocks, longTrips] = run(0.4);
    ASSERT_GT(longTrips, shortTrips + 1000);
    EXPECT_LE(longBlocks - shortBlocks, longTrips - shortTrips)
        << longBlocks - shortBlocks << " blocks for "
        << longTrips - shortTrips << " extra kernel trips";
}

// ----------------------------------------------------------------------
// Shared-kernel study: determinism and worker clamping
// ----------------------------------------------------------------------

db::SharedKernelParams
tinyStudy(unsigned workers)
{
    db::SharedKernelParams p;
    p.shards = 2;
    p.cpusPerShard = 2;
    p.relations = 4;
    p.pagesPerRelation = 64;
    p.hotPages = 32;
    p.durationSec = 0.05;
    p.workers = workers;
    return p;
}

void
expectSameResult(const db::SharedKernelResult &a,
                 const db::SharedKernelResult &b)
{
    EXPECT_EQ(a.txns, b.txns);
    EXPECT_EQ(a.touches, b.touches);
    EXPECT_EQ(a.probeHits, b.probeHits);
    EXPECT_EQ(a.probeMisses, b.probeMisses);
    EXPECT_EQ(a.localHits, b.localHits);
    EXPECT_EQ(a.kernelTrips, b.kernelTrips);
    EXPECT_EQ(a.crossRpcs, b.crossRpcs);
    EXPECT_EQ(a.faults, b.faults);
    EXPECT_EQ(a.faultBatches, b.faultBatches);
    EXPECT_EQ(a.faultsCoalesced, b.faultsCoalesced);
    EXPECT_EQ(a.cpuTouchesQueued, b.cpuTouchesQueued);
    EXPECT_EQ(a.pagesMigrated, b.pagesMigrated);
    EXPECT_EQ(a.epochs, b.epochs);
    EXPECT_EQ(a.crossEvents, b.crossEvents);
    EXPECT_DOUBLE_EQ(a.avgMs, b.avgMs);
    EXPECT_DOUBLE_EQ(a.p99Ms, b.p99Ms);
    EXPECT_DOUBLE_EQ(a.worstMs, b.worstMs);
    EXPECT_DOUBLE_EQ(a.tpsAchieved, b.tpsAchieved);
    EXPECT_DOUBLE_EQ(a.hitRate, b.hitRate);
    EXPECT_DOUBLE_EQ(a.cpuUtilization, b.cpuUtilization);
}

TEST(SharedKernelDeterminism, IdenticalAcrossWorkerCounts)
{
    db::SharedKernelResult w1 = db::runSharedKernelStudy(tinyStudy(1));
    db::SharedKernelResult w2 = db::runSharedKernelStudy(tinyStudy(2));
    expectSameResult(w1, w2);
    // The run did real work through both paths.
    EXPECT_GT(w1.txns, 0u);
    EXPECT_GT(w1.localHits, 0u);
    EXPECT_GT(w1.crossRpcs, 0u);
    EXPECT_EQ(w1.touches, w1.localHits + w1.kernelTrips);
    EXPECT_EQ(w1.crossEvents, 2 * w1.crossRpcs);
}

TEST(SharedKernelAllocation, SteadyStateKernelTripsAllocateNothing)
{
    if (!sim::mem::hooksActive())
        GTEST_SKIP() << "heap accounting compiled out";
    // One seed at two durations: set-up costs the same in both, so the
    // difference is what the extra kernel trips allocated. A hit runs
    // no coroutine and a trip allocates no mail, no CPU queue and no
    // frame once the pools are warm; what is left is the growth of
    // per-CPU latency lists.
    auto run = [](double sec) {
        db::SharedKernelParams p = tinyStudy(1);
        p.durationSec = sec;
        const std::uint64_t a0 = sim::mem::threadAllocations();
        const db::SharedKernelResult r = db::runSharedKernelStudy(p);
        return std::pair{sim::mem::threadAllocations() - a0,
                         r.kernelTrips};
    };
    (void)run(0.05); // warm the thread's pools
    const auto [shortAllocs, shortTrips] = run(0.1);
    const auto [longAllocs, longTrips] = run(0.4);
    ASSERT_GT(longTrips, shortTrips + 1000);
    const double perTrip =
        static_cast<double>(longAllocs - shortAllocs) /
        static_cast<double>(longTrips - shortTrips);
    EXPECT_LT(perTrip, 0.05)
        << longAllocs - shortAllocs << " allocations for "
        << longTrips - shortTrips << " extra kernel trips";
}

TEST(SharedKernelClamp, ExtraWorkersWarnOnStderrAndClamp)
{
    testing::internal::CaptureStderr();
    sim::ShardedSimulation engine(2, usec(50), 8);
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(engine.workers(), 2u);
    EXPECT_EQ(engine.clampedWorkerRequests(), 1u);
    EXPECT_NE(err.find("clamping 8 workers to the 2-shard"),
              std::string::npos)
        << "stderr was: " << err;

    // In-range requests stay silent.
    testing::internal::CaptureStderr();
    sim::ShardedSimulation quiet(4, usec(50), 4);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
    EXPECT_EQ(quiet.clampedWorkerRequests(), 0u);
}

} // namespace
} // namespace vpp::kernel
