/**
 * @file
 * The V++ kernel virtual-memory module (paper §2.1).
 *
 * The kernel provides exactly the mechanism the paper argues for and no
 * policy: segments with installable page frames, bound regions
 * (including copy-on-write), an explicit manager per segment, the
 * MigratePages / ModifyPageFlags / GetPageAttributes operations, and
 * delivery of page, protection and copy-on-write faults to user-level
 * managers. Page reclamation, writeback and allocation policy all live
 * in process-level managers (src/managers, src/appmgr).
 *
 * Every public operation is a coroutine that charges its control-path
 * cost from the machine's CostModel before doing the functional work;
 * `...Now` variants perform the same work in zero simulated time and
 * exist for setup code and tests.
 */

#ifndef VPP_CORE_KERNEL_H
#define VPP_CORE_KERNEL_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/fault.h"
#include "core/manager.h"
#include "core/process.h"
#include "core/segment.h"
#include "core/types.h"
#include "hw/config.h"
#include "hw/physmem.h"
#include "hw/tlb.h"
#include "inject/inject.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace vpp::kernel {

/** Ownership record for one base page frame. */
struct FrameOwner
{
    SegmentId segment = kPhysSegment;
    PageIndex page = 0;       ///< page index within the owning segment
    UserId lastUser = kSystemUser; ///< last user the frame was given to
};

/**
 * Kernel defenses against misbehaving segment managers (§2-§3: the
 * kernel retains ultimate authority). Disabled by default, in which
 * case fault delivery is the plain invoke-and-wait path with an
 * identical event sequence. When enabled, each handler invocation
 * races a deadline; an expired, crashed or lying attempt is
 * redelivered with doubling backoff, and after maxRedeliveries the
 * kernel unilaterally reclaims the manager's clean frames and fails
 * the segment over to the default manager.
 */
struct ResiliencePolicy
{
    bool enabled = false;
    sim::Duration faultDeadline = sim::msec(50);
    int maxRedeliveries = 3;
    sim::Duration retryBackoff = sim::usec(500); ///< doubles per retry
    bool failover = true;          ///< reassign to the default manager
    bool reclaimOnFailover = true; ///< sweep clean frames to phys pool
};

class Kernel
{
  public:
    Kernel(sim::Simulation &s, const hw::MachineConfig &config);

    sim::Simulation &simulation() { return *sim_; }
    const hw::MachineConfig &config() const { return config_; }
    hw::PhysicalMemory &memory() { return memory_; }

    /** TLB model (active when MachineConfig::modelTlb is set). */
    hw::Tlb *tlb() { return tlb_ ? tlb_.get() : nullptr; }

    // ------------------------------------------------------------------
    // Resilience (fault-handling deadlines, failover, injection)
    // ------------------------------------------------------------------

    /** Install the kernel's defenses against misbehaving managers. */
    void setResiliencePolicy(const ResiliencePolicy &p)
    {
        resilience_ = p;
    }
    const ResiliencePolicy &resiliencePolicy() const
    {
        return resilience_;
    }

    /**
     * The manager of last resort (the UCDS role, §2.3). Failover
     * reassigns an unresponsive manager's segment here. The default
     * manager is part of the trusted system base, so fault injection
     * never targets it.
     */
    void setDefaultManager(SegmentManager *m) { defaultMgr_ = m; }
    SegmentManager *defaultManager() const { return defaultMgr_; }

    /** Attach (or detach with nullptr) a fault-injection engine. */
    void setInjector(inject::Engine *e) { inject_ = e; }
    inject::Engine *injector() const { return inject_; }

    // ------------------------------------------------------------------
    // Segment operations (paper API; charge simulated time)
    // ------------------------------------------------------------------

    sim::Task<SegmentId>
    createSegment(std::string name, std::uint32_t page_size,
                  std::uint64_t page_limit, UserId owner,
                  SegmentManager *mgr = nullptr);

    /**
     * Destroy a segment: the manager is notified (segmentClosed) so it
     * can reclaim the frames; any frames left afterwards are swept back
     * into the physical segment.
     */
    sim::Task<> destroySegment(SegmentId seg);

    /** SetSegmentManager(seg, manager) — paper §2.1. */
    sim::Task<> setSegmentManager(SegmentId seg, SegmentManager *mgr);

    /**
     * Bind @p pages pages of @p seg starting at @p at to an equal range
     * of @p target starting at @p target_start. Page sizes must match.
     */
    sim::Task<>
    bindRegion(SegmentId seg, PageIndex at, std::uint64_t pages,
               SegmentId target, PageIndex target_start,
               std::uint32_t prot, bool copy_on_write = false);

    sim::Task<> unbindRegion(SegmentId seg, PageIndex at);

    /**
     * MigratePages(src, dst, srcPage, dstPage, pages, sFlgs, cFlgs) —
     * move page frames between segments, applying flag edits. Returns
     * the number of destination pages created (differs from @p pages
     * when the segments have different page sizes).
     */
    sim::Task<std::uint64_t>
    migratePages(SegmentId src, SegmentId dst, PageIndex src_page,
                 PageIndex dst_page, std::uint64_t pages,
                 std::uint32_t set_flags, std::uint32_t clear_flags);

    /** ModifyPageFlags — flag edits without moving frames. */
    sim::Task<std::uint64_t>
    modifyPageFlags(SegmentId seg, PageIndex page, std::uint64_t pages,
                    std::uint32_t set_flags, std::uint32_t clear_flags);

    /** GetPageAttributes — flags and physical address per page. */
    sim::Task<std::vector<PageAttribute>>
    getPageAttributes(SegmentId seg, PageIndex page, std::uint64_t pages);

    // ------------------------------------------------------------------
    // Memory reference path
    // ------------------------------------------------------------------

    /** Reference a byte address through the process's address space. */
    sim::Task<> touch(Process &p, std::uint64_t vaddr, AccessType a);

    /** Reference a page of a specific segment (block access path). */
    sim::Task<>
    touchSegment(Process &p, SegmentId seg, PageIndex page, AccessType a);

    // ------------------------------------------------------------------
    // Data movement
    // ------------------------------------------------------------------

    /** Copy bytes into an own page of a segment (no time charged). */
    void
    writePageData(SegmentId seg, PageIndex page, std::uint64_t offset,
                  std::span<const std::byte> data);

    /** Copy bytes out of an own page of a segment (no time charged). */
    void
    readPageData(SegmentId seg, PageIndex page, std::uint64_t offset,
                 std::span<std::byte> out);

    /** Write through a process's address space, faulting as needed. */
    sim::Task<>
    copyIn(Process &p, std::uint64_t vaddr,
           std::span<const std::byte> data);

    /** Read through a process's address space, faulting as needed. */
    sim::Task<>
    copyOut(Process &p, std::uint64_t vaddr, std::span<std::byte> out);

    /** Charge memory-copy time for @p bytes. */
    sim::Task<> chargeCopy(std::uint64_t bytes);

    /** Charge zero-fill time for @p bytes. */
    sim::Task<> chargeZero(std::uint64_t bytes);

    // ------------------------------------------------------------------
    // Zero-simulated-time functional primitives
    // ------------------------------------------------------------------

    SegmentId
    createSegmentNow(std::string name, std::uint32_t page_size,
                     std::uint64_t page_limit, UserId owner,
                     SegmentManager *mgr = nullptr);

    void setSegmentManagerNow(SegmentId seg, SegmentManager *mgr);

    void
    bindRegionNow(SegmentId seg, PageIndex at, std::uint64_t pages,
                  SegmentId target, PageIndex target_start,
                  std::uint32_t prot, bool copy_on_write = false);

    void unbindRegionNow(SegmentId seg, PageIndex at);

    std::uint64_t
    migratePagesNow(SegmentId src, SegmentId dst, PageIndex src_page,
                    PageIndex dst_page, std::uint64_t pages,
                    std::uint32_t set_flags, std::uint32_t clear_flags,
                    std::uint64_t *bytes_zeroed = nullptr);

    std::uint64_t
    modifyPageFlagsNow(SegmentId seg, PageIndex page, std::uint64_t pages,
                       std::uint32_t set_flags, std::uint32_t clear_flags);

    std::vector<PageAttribute>
    getPageAttributesNow(SegmentId seg, PageIndex page,
                         std::uint64_t pages) const;

    // ------------------------------------------------------------------
    // Introspection (tests, managers, benchmarks)
    // ------------------------------------------------------------------

    bool segmentExists(SegmentId s) const;
    Segment &segment(SegmentId s);
    const Segment &segment(SegmentId s) const;

    const FrameOwner &frameOwner(hw::FrameId f) const;

    /** Number of frames currently in the physical segment (free pool). */
    std::uint64_t physSegmentFrames() const;

    /**
     * Check the frame-conservation invariant: every base frame is owned
     * by exactly one segment page, and ownership records agree with
     * segment page tables. Returns true if consistent; otherwise fills
     * @p why.
     */
    bool checkFrameInvariant(std::string *why = nullptr) const;

    struct Stats
    {
        std::uint64_t faults = 0;
        std::uint64_t missingFaults = 0;
        std::uint64_t protectionFaults = 0;
        std::uint64_t cowFaults = 0;
        std::uint64_t managerCalls = 0;
        std::uint64_t migrateCalls = 0;
        std::uint64_t pagesMigrated = 0;
        std::uint64_t modifyFlagCalls = 0;
        std::uint64_t getAttrCalls = 0;
        std::uint64_t zeroFills = 0;
        std::uint64_t bytesZeroed = 0;
        std::uint64_t bytesCopied = 0;
        std::uint64_t segmentsCreated = 0;
        std::uint64_t segmentsDestroyed = 0;
        std::uint64_t tlbMisses = 0;

        // Always 0: resolve() keeps no cache. Kept only because the
        // end-to-end benchmark still reads them.
        std::uint64_t resolveHits = 0;
        std::uint64_t resolveMisses = 0;

        // Batched fault delivery (active only when the machine opts
        // in with MachineConfig::faultCoalescing).
        std::uint64_t faultBatches = 0;   ///< coalesced dispatches
        std::uint64_t faultsCoalesced = 0; ///< faults carried by them

        // Shared-kernel per-CPU fault path.
        std::uint64_t cpuTouchesQueued = 0; ///< touches parked on CPU queues
        std::uint64_t cpuDrains = 0;        ///< CPU-queue drain passes

        // Resilience / failure-path counters.
        std::uint64_t faultTimeouts = 0;   ///< deadline expiries
        std::uint64_t faultRedeliveries = 0;
        std::uint64_t failovers = 0;       ///< segments reassigned
        std::uint64_t managerCrashes = 0;  ///< handler exceptions contained
        std::uint64_t injectedStalls = 0;
        std::uint64_t injectedLies = 0;
        std::uint64_t framesReclaimed = 0; ///< unilateral reclamations
        std::uint64_t closeFailures = 0;   ///< segmentClosed crashes
        std::uint64_t ioErrors = 0;        ///< DiskErrors seen by paging
        std::uint64_t ioRetries = 0;       ///< paging retries issued

        // Fault-path latency (sum and max over deliverFault, entry to
        // resolution, in simulated time). Pure accumulation: no events
        // are scheduled, so enabling nothing keeps runs bit-identical.
        sim::Duration faultLatencyTotal = 0;
        sim::Duration faultLatencyMax = 0;

        void reset() { *this = Stats{}; }
    };

    Stats &stats() { return stats_; }
    const Stats &stats() const { return stats_; }

    /** Result of resolving a segment reference (exposed for tests). */
    using Resolution = ::vpp::kernel::Resolution;

    /**
     * Walk the binding chain from (seg, page) to the entry that backs
     * it, or to the page a fault must fill. Caches nothing, so it is
     * also the oracle the per-CPU cache tests compare against.
     */
    Resolution resolve(SegmentId seg, PageIndex page);

    // ------------------------------------------------------------------
    // Shared-kernel sharding: per-CPU resolve caches and fault queues
    // ------------------------------------------------------------------
    //
    // One kernel can service CPUs owned by several shards of a
    // ShardedSimulation. The contract that keeps this deterministic
    // and race-free:
    //
    //  - cpuResolve/cpuStore for CPU c are called only by the shard
    //    that owns CPU c; each CpuState is single-writer.
    //  - A probe validates against a per-segment epoch table. In
    //    *live* mode (snapshot_epochs = false, the unsharded case)
    //    that is `segEpochs_` itself: every mutation invalidates
    //    affected entries strictly and immediately. In *snapshot*
    //    mode the probe reads `segEpochSnapshot_`, a copy published
    //    only from the sharded engine's single-threaded barrier via
    //    publishCpuEpochs() — remote shards may serve a stale entry
    //    until the next epoch boundary (bounded by the engine's
    //    lookahead), but never observe a torn or racing table.
    //  - All kernel mutation (touchOnCpu faults, migrate, reclaim)
    //    happens on the kernel's home shard, arriving from remote
    //    shards through the engine's mailboxes in canonical merge
    //    order, so manager-visible batch composition is identical at
    //    any worker count.

    /**
     * Create @p cpus per-CPU resolve caches (replacing any existing
     * ones). @p snapshot_epochs selects snapshot validation (sharded
     * runs) over live validation (single-shard runs). Every per-CPU
     * call below throws KernelError for a CPU id outside [0, cpus).
     */
    void configureCpus(unsigned cpus, bool snapshot_epochs);

    unsigned cpuCount() const
    {
        return static_cast<unsigned>(cpus_.size());
    }

    /**
     * Publish the current per-segment epochs to the snapshot probes
     * validate against. Call from single-threaded context only (the
     * sharded engine's barrier hook, or tests).
     */
    void publishCpuEpochs();

    /**
     * Probe CPU @p cpu's cache. Returns the cached resolution on a
     * hit, nullptr on a miss; counts per-CPU hit/miss. Safe to call
     * from the owning shard's worker thread concurrently with other
     * CPUs' probes and (in snapshot mode) with home-shard mutation.
     */
    const CpuResolution *
    cpuResolve(unsigned cpu, SegmentId seg, PageIndex page);

    /** Install a resolution into CPU @p cpu's cache (owner shard only). */
    void cpuStore(unsigned cpu, const CpuResolution &r);

    /**
     * Resolve (seg, page) by walking the binding chain and package the
     * result as a cacheable value, recording the chain segments and
     * their epoch sum. Home shard only. Non-present or deeper than
     * kResolveChainMax resolutions come back with chainLen 0 —
     * cpuStore ignores those.
     */
    CpuResolution resolveForCpu(SegmentId seg, PageIndex page);

    /**
     * Fault entry point for a CPU: parks the touch on the CPU's
     * in-queue; a single drain walks the queues in CPU-id order and
     * feeds the faults through the regular touchSegment path (and so
     * into the coalescing/batch machinery). Same-instant faults from
     * many CPUs therefore reach managers in one deterministic batch
     * order regardless of how many shards raised them.
     */
    sim::Task<> touchOnCpu(unsigned cpu, Process &p, SegmentId seg,
                           PageIndex page, AccessType a);

    std::uint64_t cpuHits(unsigned cpu) const;
    std::uint64_t cpuMisses(unsigned cpu) const;

    /** Current mutation epoch of a segment (tests). */
    std::uint64_t segmentEpoch(SegmentId s) const
    {
        return s < segEpochs_.size() ? segEpochs_[s] : 0;
    }

  private:
    static constexpr int kMaxFaultRetries = 8;
    static constexpr int kMaxBindingDepth = 8;

    sim::Task<> deliverFault(Fault f);

    /**
     * Coalescing fault queue (MachineConfig::faultCoalescing): faults
     * against one manager enqueue here and share one dispatch
     * crossing per drain. Resilient delivery and injection stay on
     * the per-fault path so deadline/redelivery semantics (and the
     * manager-crash failover sweep) are unchanged.
     */
    sim::Task<> enqueueCoalesced(SegmentManager *mgr, const Fault &f);
    sim::Task<> drainFaultQueue(SegmentManager *mgr);

    sim::Task<> notifyClosed(SegmentManager *mgr, SegmentId seg);
    sim::SimMutex &managerLock(SegmentManager *mgr);

    /**
     * The kernel -> manager crossing, the one owner of its per-mode
     * charges (Table 1). A same-process manager is entered by an
     * upcall and left by a resume; a separate-process manager by an
     * IPC send and context switch, then serialised on its lock, and
     * left by the reply, a context switch and the trap exit. @p pre is
     * charged together with the entry. A throwing @p body releases the
     * lock and the exception propagates.
     */
    sim::Task<> crossToManager(SegmentManager *mgr, sim::Duration pre,
                               sim::Task<> body);

    /**
     * Invoke the handler, applying manager-layer fault injection
     * (stall / crash / lie) unless @p mgr is the trusted default
     * manager. With no engine attached this is a plain handleFault.
     */
    sim::Task<> invokeHandler(SegmentManager *mgr, const Fault &f);

    /** Injection-active slow path of invokeHandler. */
    sim::Task<> invokeHandlerInjected(SegmentManager *mgr,
                                      const Fault &f);

    /** Resilient delivery: deadline, redelivery, failover. */
    sim::Task<> deliverResilient(SegmentManager *mgr, Fault f);

    /**
     * One handler attempt raced against the fault deadline. Returns
     * whether the fault is resolved afterwards; a late or crashing
     * handler is contained (its outcome is recorded, never rethrown).
     */
    sim::Task<bool> attemptWithDeadline(SegmentManager *mgr,
                                        const Fault &f);

    /** The spawned half of attemptWithDeadline (detached root). */
    sim::Task<> runHandlerAttempt(
        SegmentManager *mgr, Fault f,
        std::shared_ptr<sim::Promise<int>> done);

    bool faultResolved(const Fault &f);

    /**
     * Unilaterally reclaim the clean, unpinned frames of every segment
     * managed by @p mgr (§2: the kernel can always take memory back).
     * Dirty and pinned pages are left so no data is lost. Returns
     * frames reclaimed into the physical segment.
     */
    std::uint64_t reclaimUnresponsive(SegmentManager *mgr);

    /** Follow non-copy-on-write bindings to the install target. */
    void resolveForInstall(SegmentId &seg, PageIndex &page) const;

    /**
     * Bump one segment's mutation epoch, invalidating exactly the
     * per-CPU entries whose resolution chain passed through it. Called
     * by anything that changes what resolve() could observe through
     * that segment: migrations, bind/unbind, flag edits, reclamation
     * and segment destruction.
     */
    void bumpSegEpoch(SegmentId s)
    {
        if (s < segEpochs_.size()) [[likely]]
            ++segEpochs_[s];
    }

    void sweepToPhysSegment(Segment &seg);

    /**
     * O(1) segment lookup: `byId_` is a dense id -> Segment* index
     * maintained alongside the ownership map (ids are sequential).
     * The fault hot path resolves segments several times per fault;
     * the std::map walk was a measurable fraction of it.
     */
    Segment &
    segmentOrThrow(SegmentId s)
    {
        if (s < byId_.size() && byId_[s]) [[likely]]
            return *byId_[s];
        throwBadSegment(s);
    }

    const Segment &
    segmentOrThrow(SegmentId s) const
    {
        if (s < byId_.size() && byId_[s]) [[likely]]
            return *byId_[s];
        throwBadSegment(s);
    }

    [[noreturn]] static void throwBadSegment(SegmentId s);

    /**
     * The shared cache-free resolution walk. When @p chain is given
     * it records every segment id visited (origin through final
     * owner) up to kResolveChainMax entries; *chain_len comes back
     * UINT32_MAX when the walk was deeper than fits (uncacheable).
     */
    Resolution walkResolution(Segment &origin, SegmentId seg,
                              PageIndex page,
                              SegmentId *chain = nullptr,
                              std::uint32_t *chain_len = nullptr);

    std::uint32_t framesPerPage(const Segment &s) const;

    sim::Simulation *sim_;
    hw::MachineConfig config_;
    hw::PhysicalMemory memory_;
    SegmentId nextSegment_ = 0;
    std::map<SegmentId, std::unique_ptr<Segment>> segments_;
    std::vector<Segment *> byId_; ///< dense id index over segments_
    std::map<SegmentId, int> bindRefs_; ///< # regions targeting a segment
    std::vector<FrameOwner> frames_;
    std::map<SegmentManager *, std::unique_ptr<sim::SimMutex>> mgrLocks_;

    struct PendingFault
    {
        Fault f;
        std::shared_ptr<sim::Promise<>> done;
    };

    struct FaultQueue
    {
        std::vector<PendingFault> pending;
        bool draining = false;
    };

    std::map<SegmentManager *, FaultQueue> faultQueues_;

    /** A CPU touch parked on its in-queue awaiting the drain. */
    struct PendingCpuTouch
    {
        Process *proc = nullptr;
        SegmentId seg = kInvalidSegment;
        PageIndex page = 0;
        AccessType access = AccessType::Read;
        std::shared_ptr<sim::Promise<>> done;
    };

    /**
     * Everything a simulated CPU owns. During a sharded run each
     * CpuState is read and written only by its owner shard, except
     * `pending`, which only the kernel's home shard touches.
     */
    struct CpuState
    {
        CpuResolveCache cache;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::vector<PendingCpuTouch> pending;
    };

    /** The CPU's state; unknown ids throw, as segmentOrThrow does. */
    CpuState &
    cpuOrThrow(unsigned cpu) const
    {
        if (cpu < cpus_.size()) [[likely]]
            return *cpus_[cpu];
        throwBadCpu(cpu);
    }

    [[noreturn]] static void throwBadCpu(unsigned cpu);

    sim::Task<> drainCpuTouches();
    sim::Task<> runCpuTouch(PendingCpuTouch t);

    std::vector<std::unique_ptr<CpuState>> cpus_;
    bool cpuSnapshotMode_ = false;
    bool cpuDraining_ = false;

    /**
     * Per-segment mutation epochs, dense by SegmentId (slots survive
     * segment destruction so stale chains through a dead id still
     * compare unequal). The snapshot is the copy remote shards
     * validate against between barrier publishes.
     */
    std::vector<std::uint64_t> segEpochs_;
    std::vector<std::uint64_t> segEpochSnapshot_;

    std::unique_ptr<hw::Tlb> tlb_;
    Stats stats_;
    ResiliencePolicy resilience_;
    SegmentManager *defaultMgr_ = nullptr;
    inject::Engine *inject_ = nullptr;

};

/**
 * Per-thread memory-market counters, following the pattern of hw's
 * thread-local disk counters: the SPCM reports auction rounds, bids
 * carried in them, and the worst unserved-bid age here; the sweep
 * runner resets them per row and surfaces them on the (undiffed)
 * stderr cost line, keeping the committed stdout/JSON tables
 * byte-identical. They
 * live in the core library (not managers) so the sweep layer can
 * reference them from benches that do not link vpp_managers.
 */
void resetThreadMarketCounters();
void noteThreadMarketRound(std::uint64_t bids);
void noteThreadMarketStarve(sim::Duration age);
std::uint64_t threadMarketRounds();
std::uint64_t threadMarketBids();
sim::Duration threadMarketMaxStarve();

/** Run a task to completion on a fresh simulation (test helper). */
template <typename T>
T
runTask(sim::Simulation &s, sim::Task<T> t)
{
    std::optional<T> out;
    s.spawn([](sim::Task<T> inner, std::optional<T> *o) -> sim::Task<> {
        *o = co_await std::move(inner);
    }(std::move(t), &out));
    s.run();
    if (!out)
        throw sim::SimPanic("task did not complete");
    return std::move(*out);
}

inline void
runTask(sim::Simulation &s, sim::Task<> t)
{
    bool done = false;
    s.spawn([](sim::Task<> inner, bool *d) -> sim::Task<> {
        co_await std::move(inner);
        *d = true;
    }(std::move(t), &done));
    s.run();
    if (!done)
        throw sim::SimPanic("task did not complete");
}

} // namespace vpp::kernel

#endif // VPP_CORE_KERNEL_H
