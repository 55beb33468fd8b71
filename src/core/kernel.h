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
 * Every public operation charges its control-path cost from the
 * machine's CostModel before doing the functional work; `...Now`
 * variants perform the same work in zero simulated time and exist for
 * setup code and tests. Operations that only charge one delay, and the
 * memory reference path, are plain awaiters rather than coroutines: a
 * resident touch builds no coroutine frame, and only a fault starts one
 * (DESIGN.md, "A frame only where the machine waits").
 */

#ifndef VPP_CORE_KERNEL_H
#define VPP_CORE_KERNEL_H

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
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
 * identical event sequence. When enabled, each delivery attempt of a
 * batch races a deadline; the faults an expired, crashed or lying
 * attempt left unresolved are redelivered with doubling backoff, and
 * after maxRedeliveries the kernel unilaterally reclaims the manager's
 * clean frames and fails their segments over to the default manager.
 */
struct ResiliencePolicy
{
    bool enabled = false;
    sim::Duration faultDeadline = sim::msec(50);
    int maxRedeliveries = 3;
    sim::Duration retryBackoff = sim::usec(500); ///< doubles per retry
    bool failover = true; ///< reassign, reclaiming clean frames first
};

class Kernel
{
  public:
    class Touch;
    class CpuTouch;
    class Migrate;
    struct FlagEdit;

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
     * move page frames between segments, applying flag edits. Awaiting
     * it returns the number of destination pages created (differs from
     * @p pages when the segments have different page sizes). Counted
     * when called; await it at once.
     */
    Migrate
    migratePages(SegmentId src, SegmentId dst, PageIndex src_page,
                 PageIndex dst_page, std::uint64_t pages,
                 std::uint32_t set_flags, std::uint32_t clear_flags);

    /**
     * ModifyPageFlags — flag edits without moving frames, made once
     * the call's delay has passed. Counted when called; await it at
     * once.
     */
    FlagEdit
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

    /**
     * Reference a page of a specific segment (block access path). The
     * access is attempted when the touch is awaited (see Touch).
     */
    Touch
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

    /** Charge memory-copy time for @p bytes; counted when called. */
    [[nodiscard]] sim::Simulation::DelayAwaiter
    chargeCopy(std::uint64_t bytes)
    {
        stats_.bytesCopied += bytes;
        return sim_->delay(copyTime(bytes));
    }

    /** Charge zero-fill time for @p bytes. */
    [[nodiscard]] sim::Simulation::DelayAwaiter
    chargeZero(std::uint64_t bytes)
    {
        return sim_->delay(zeroTime(bytes));
    }

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
        std::uint64_t faultBatches = 0;   ///< queue-formed batches
        std::uint64_t faultsCoalesced = 0; ///< faults carried by them

        // Shared-kernel per-CPU fault path.
        std::uint64_t cpuTouchesQueued = 0; ///< touches parked on CPU queues
        std::uint64_t cpuDrains = 0;        ///< CPU-queue drain passes

        // Resilience / failure-path counters. Redeliveries count
        // faults; timeouts, crashes, stalls and lies count attempts.
        std::uint64_t faultTimeouts = 0;   ///< deadline expiries
        std::uint64_t faultRedeliveries = 0;
        std::uint64_t failovers = 0;       ///< batches failed over
        std::uint64_t managerCrashes = 0;  ///< handler exceptions contained
        std::uint64_t injectedStalls = 0;
        std::uint64_t injectedLies = 0;
        std::uint64_t framesReclaimed = 0; ///< unilateral reclamations
        std::uint64_t closeFailures = 0;   ///< segmentClosed crashes
        std::uint64_t ioErrors = 0;        ///< DiskErrors seen by paging
        std::uint64_t ioRetries = 0;       ///< paging retries issued

        // Fault-path latency (sum and max over delivered faults, entry
        // to resolution, in simulated time). Pure accumulation: no events
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
     * Fault entry point for a CPU: awaiting it (or CpuTouch::park)
     * parks the touch on the CPU's in-queue and marks the CPU parked;
     * a single drain visits the parked CPUs in id order, each queue
     * FIFO, and makes each touch's attempt in place, starting the
     * regular fault path (and so the coalescing/batch machinery) only
     * for a fault. Same-instant faults from many CPUs therefore reach
     * managers in one deterministic batch order regardless of how many
     * shards raised them. An unknown CPU throws when the touch parks.
     */
    CpuTouch touchOnCpu(unsigned cpu, Process &p, SegmentId seg,
                        PageIndex page, AccessType a);

    std::uint64_t cpuHits(unsigned cpu) const;
    std::uint64_t cpuMisses(unsigned cpu) const;

  private:
    static constexpr int kMaxFaultRetries = 8;
    static constexpr int kMaxBindingDepth = 8;

    /** What one attempt at a touch found (see touchStep). */
    enum class TouchStep : std::uint8_t
    {
        Hit,    ///< done
        Refill, ///< done once the TLB refill's time has passed
        Fault,  ///< a fault must be delivered
    };

    /**
     * One attempt at a touch through @p r, the resolution of (seg,
     * page), in zero simulated time. A present page whose mapping
     * forbids the access throws Permission. A permitted resident
     * access sets the referenced (and, for a write, dirty) flag and
     * looks up the TLB.
     */
    TouchStep touchStep(Resolution &r, SegmentId seg, PageIndex page,
                        AccessType a);

    /** The fault a touch whose attempt found @p r must deliver. */
    Fault faultFor(const Resolution &r, Process &p, SegmentId seg,
                   PageIndex page, AccessType a) const;

    /**
     * Resolve and make one attempt at a touch. Returns true when the
     * touch is done with no simulated time. Otherwise a fault leaves
     * its fault loop in @p fault, and a TLB refill leaves @p fault
     * empty.
     */
    bool attemptTouch(Process &p, SegmentId seg, PageIndex page,
                      AccessType a, sim::Task<> &fault);

    /**
     * Deliver @p f and retry its touch (f.process, f.vaSegment,
     * f.vaPage, f.access) until an attempt succeeds, delivering every
     * fault it raises; after kMaxFaultRetries deliveries the touch
     * throws FaultLoop.
     */
    sim::Task<> faultLoop(Fault f);

    /**
     * The faults one crossing carries. A batch of one, as every inline
     * fault is, holds its fault in place, and so does each resilient
     * attempt's copy of it; a queue-formed batch of more keeps them in
     * pooled storage.
     */
    class FaultBatch
    {
      public:
        FaultBatch() = default;
        explicit FaultBatch(const Fault &f) : one_(f), inline_(true) {}

        /** Room for @p n faults, in pooled storage when n > 1. */
        void
        reserve(std::size_t n)
        {
            if (n > 1)
                more_.reserve(n);
        }

        /** Append @p f; a second fault moves the first to the pool. */
        void
        push_back(const Fault &f)
        {
            if (!inline_ && more_.empty()) {
                one_ = f;
                inline_ = true;
                return;
            }
            if (inline_) {
                more_.push_back(one_);
                inline_ = false;
            }
            more_.push_back(f);
        }

        std::span<const Fault>
        view() const
        {
            if (inline_)
                return {&one_, 1};
            return more_;
        }

        std::size_t size() const { return view().size(); }
        bool empty() const { return view().empty(); }
        const Fault &front() const { return view().front(); }

        /** Drop every fault @p done holds for, keeping the order. */
        template <typename Pred>
        void
        eraseIf(Pred done)
        {
            if (inline_)
                inline_ = !done(one_);
            else
                std::erase_if(more_, done);
        }

      private:
        Fault one_;
        bool inline_ = false; ///< the batch is one_
        sim::PoolVector<Fault> more_;
    };

    /**
     * Coalescing fault queue (MachineConfig::faultCoalescing): faults
     * against one manager park here, and the drain hands each batch
     * to deliverBatch with faultDispatch as its entry charge. A
     * manager has one batch in flight, redeliveries included; faults
     * raised meanwhile form the next batch.
     */
    sim::Task<> enqueueCoalesced(SegmentManager *mgr, const Fault &f);
    sim::Task<> drainFaultQueue(SegmentManager *mgr);

    /**
     * Deliver one batch to @p mgr: the only fault-delivery routine.
     * Counts one manager call and charges @p pre with the first
     * attempt's entry. Without a ResiliencePolicy the single attempt
     * runs inline and a handler error propagates. With one, each
     * attempt is raced against the deadline, only the faults still
     * unresolved are redelivered, and failover reclaims the manager's
     * clean frames once and reassigns every unresolved fault's
     * segment to the default manager.
     */
    sim::Task<> deliverBatch(SegmentManager *mgr, FaultBatch faults,
                             sim::Duration pre);

    sim::Task<> notifyClosed(SegmentManager *mgr, SegmentId seg);
    sim::SimMutex &managerLock(SegmentManager *mgr);

    /**
     * The kernel -> manager crossing, the one owner of its per-mode
     * charges (Table 1). A same-process manager is entered by an
     * upcall and left by a resume; a separate-process manager by an
     * IPC send and context switch, then serialised on its lock, and
     * left by the reply, a context switch and the trap exit. @p pre is
     * charged together with the entry. Once inside, after any lock,
     * @p body() returns the task to run there, or an empty task for
     * none. A throwing body releases the lock and the exception
     * propagates. A plain function: it returns ipc::cross's task, so
     * the crossing adds no coroutine frame of its own.
     */
    template <typename Body>
    sim::Task<> crossToManager(SegmentManager *mgr, sim::Duration pre,
                               Body body);

    /**
     * The body of a fault crossing, built once the manager is entered.
     * It drops the faults of @p faults that are already resolved and
     * returns an empty task when none is left. Otherwise it returns
     * the manager's handler (handleFaults for queue-formed batches,
     * handleFault for an inline fault) directly, so no wrapper frame
     * sits between the kernel and the manager, unless an injection
     * engine targets @p mgr.
     */
    sim::Task<> invokeHandler(SegmentManager *mgr, FaultBatch &faults);

    /**
     * Injection-active slow path of invokeHandler: one manager-layer
     * action (stall / crash / lie) drawn for the whole crossing.
     */
    sim::Task<> invokeHandlerInjected(SegmentManager *mgr,
                                      FaultBatch &faults);

    /** The handler call for @p faults (see invokeHandler). */
    sim::Task<> handlerFor(SegmentManager *mgr, const FaultBatch &faults);

    struct AttemptLink;

    /**
     * One resilient attempt's race against its deadline, as the
     * delivery awaiting it sees it: awaiting it yields whether the
     * deadline expired first. It lives in the delivery's frame and is
     * reset for each attempt. The running attempt points at it through
     * its AttemptLink until it reports or the deadline cuts it loose,
     * and the deadline points at it until it fires or the resumed
     * delivery cancels it. A destructor only unlinks, so the engine
     * may destroy either frame first (DESIGN.md, "A frame only where
     * the machine waits").
     */
    struct AttemptRace
    {
        AttemptRace() = default;
        AttemptRace(const AttemptRace &) = delete;
        AttemptRace &operator=(const AttemptRace &) = delete;
        ~AttemptRace() { cutLoose(); }

        /** Open the race for the next attempt. */
        void reset() { finished = timedOut = false; }

        /** The deadline: it expires unless the attempt reported. */
        void expire(sim::Simulation &s);

        /** The attempt, still linked, finished (or crashed). */
        void finish(sim::Simulation &s);

        /** Stop the running attempt from reporting here. */
        void cutLoose();

        bool await_ready() const noexcept { return finished || timedOut; }

        void
        await_suspend(std::coroutine_handle<> h) noexcept
        {
            waiting = h;
        }

        bool
        await_resume() noexcept
        {
            waiting = nullptr;
            return timedOut;
        }

        std::coroutine_handle<> waiting; ///< the parked delivery
        AttemptLink *attempt = nullptr;  ///< the linked, running attempt
        bool finished = false;
        bool timedOut = false;
    };

    /** A running attempt's end of its AttemptRace, in its frame. */
    struct AttemptLink
    {
        explicit AttemptLink(AttemptRace &r) : race(&r) { r.attempt = this; }
        AttemptLink(const AttemptLink &) = delete;
        AttemptLink &operator=(const AttemptLink &) = delete;

        ~AttemptLink()
        {
            if (race)
                race->attempt = nullptr;
        }

        AttemptRace *race; ///< null once cut loose or reported
    };

    /**
     * One resilient attempt, spawned as a detached root so that it can
     * race a deadline. It owns its copy of the batch and reports to
     * @p race while still linked; a crashing handler is contained
     * (counted, never rethrown).
     */
    sim::Task<> runHandlerAttempt(SegmentManager *mgr, FaultBatch faults,
                                  sim::Duration pre, AttemptRace &race);

    bool faultResolved(const Fault &f);
    void dropResolved(FaultBatch &faults);

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
     * O(1) segment lookup in the table indexed by id (ids are
     * sequential). The fault hot path resolves segments several times
     * per fault.
     */
    Segment &
    segmentOrThrow(SegmentId s)
    {
        if (s < segments_.size() && segments_[s]) [[likely]]
            return *segments_[s];
        throwBadSegment(s);
    }

    const Segment &
    segmentOrThrow(SegmentId s) const
    {
        if (s < segments_.size() && segments_[s]) [[likely]]
            return *segments_[s];
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

    sim::Duration
    copyTime(std::uint64_t bytes) const
    {
        return static_cast<sim::Duration>(
            static_cast<double>(config_.cost.copyPerKB) * bytes / 1024.0);
    }

    sim::Duration
    zeroTime(std::uint64_t bytes) const
    {
        return static_cast<sim::Duration>(
            static_cast<double>(config_.cost.pageZeroPerKB) * bytes /
            1024.0);
    }

    sim::Simulation *sim_;
    hw::MachineConfig config_;
    hw::PhysicalMemory memory_;
    SegmentId nextSegment_ = 0;
    /// Every segment, indexed by id; a destroyed segment's slot is
    /// null. Iterating it visits live segments in ascending id order.
    std::vector<std::unique_ptr<Segment>> segments_;
    std::map<SegmentId, int> bindRefs_; ///< # regions targeting a segment
    std::vector<FrameOwner> frames_;
    std::map<SegmentManager *, std::unique_ptr<sim::SimMutex>> mgrLocks_;

    struct PendingFault
    {
        Fault f;
        sim::Promise<> done;
    };

    struct FaultQueue
    {
        std::vector<PendingFault> pending;
        /// The drain's batch storage between batches; swapped with
        /// `pending`, so neither list gives up its capacity.
        std::vector<PendingFault> spare;
        bool draining = false;
    };

    std::map<SegmentManager *, FaultQueue> faultQueues_;

    /**
     * Everything a simulated CPU owns. During a sharded run each
     * CpuState is read and written only by its owner shard, except
     * `pending`, which only the kernel's home shard touches. A parked
     * touch is owned by its caller: an awaiter in the waiting
     * coroutine's frame, or a record such as a remote trip's. The
     * kernel reads it only from the drain that finishes it, never
     * after, and never from a destructor.
     */
    struct CpuState
    {
        CpuResolveCache cache;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::vector<CpuTouch *> pending;
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

    /**
     * Queue the drain's next pass as an inline event at the current
     * instant, behind everything already queued for it.
     */
    void scheduleCpuDrain();

    /**
     * One pass over the parked CPUs. A pass that found a touch
     * schedules the next, which catches touches parked later in the
     * same instant; one that found none ends the drain.
     */
    void drainCpuTouches();

    /**
     * Finish a parked touch whose attempt did not: run its fault loop
     * @p fault, or the TLB refill when @p fault is empty, then finish
     * the touch.
     */
    sim::Task<> runCpuTouch(CpuTouch &t, sim::Task<> fault);

    std::vector<std::unique_ptr<CpuState>> cpus_;
    /// Bit c % 64 of word c / 64: CPU c has touches parked.
    std::vector<std::uint64_t> parkedCpus_;
    /// The drain's batch buffer, swapped with each parked queue.
    std::vector<CpuTouch *> cpuBatch_;
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
 * touchSegment's awaiter. A resident access never enters the kernel
 * (paper §2.1), so await_ready makes the touch's first attempt (see
 * Kernel::touchStep) and a permitted resident access with a TLB hit
 * completes there, with no frame and no event. A TLB refill resumes
 * the caller once tlbRefill has passed. Only a fault starts a
 * coroutine, the fault loop, which the awaiter owns and runs. Moved
 * into a Task<>, it makes a task that runs the touch when awaited.
 */
class [[nodiscard]] Kernel::Touch
{
  public:
    bool await_ready()
    {
        return k_->attemptTouch(*p_, seg_, page_, a_, fault_);
    }

    std::coroutine_handle<> await_suspend(std::coroutine_handle<> h);

    /** Rethrows the fault loop's error, if any. */
    void await_resume() { sim::Task<>::Awaiter(fault_).await_resume(); }

    operator sim::Task<>() &&;

  private:
    friend class Kernel;

    Touch(Kernel &k, Process &p, SegmentId seg, PageIndex page,
          AccessType a) noexcept
        : k_(&k), p_(&p), seg_(seg), a_(a), page_(page)
    {}

    Kernel *k_;
    Process *p_;
    SegmentId seg_;
    AccessType a_;
    PageIndex page_;
    sim::Task<> fault_; ///< the fault loop, once the attempt faulted
};

/**
 * touchOnCpu's touch. Awaited, it parks itself on the CPU's in-queue;
 * a caller that is not a coroutine parks it with park(). Either way
 * the drain finishes it with one event at the current instant, once
 * the attempt is made in place or a fault's or TLB refill's coroutine
 * has finished: the event resumes the awaiting coroutine, or calls
 * park()'s callback. Moved into a Task<>, it makes a task that runs
 * the touch when awaited.
 */
class [[nodiscard]] Kernel::CpuTouch
{
  public:
    bool await_ready() const noexcept { return false; }

    void await_suspend(std::coroutine_handle<> h)
    {
        park(nullptr, h.address());
    }

    /** Rethrows what the touch threw, if anything. */
    void
    await_resume() const
    {
        if (error_)
            std::rethrow_exception(error_);
    }

    /**
     * Park the touch for a caller that is not a coroutine: the event
     * that finishes it calls @p done(@p arg), which calls
     * await_resume() for the touch's error. The touch must stay put
     * until then. An unknown CPU throws here, and nothing is parked.
     */
    void park(void (*done)(void *), void *arg);

    operator sim::Task<>() &&;

    Kernel &kernel() const { return *k_; }
    unsigned cpu() const { return cpu_; }
    SegmentId segment() const { return seg_; }
    PageIndex page() const { return page_; }

  private:
    friend class Kernel;

    CpuTouch(Kernel &k, unsigned cpu, Process &p, SegmentId seg,
             PageIndex page, AccessType a) noexcept
        : k_(&k), p_(&p), cpu_(cpu), seg_(seg), a_(a), page_(page)
    {}

    /** Schedule the event that resumes the caller or calls done_. */
    void finish();

    Kernel *k_;
    Process *p_;
    unsigned cpu_;
    SegmentId seg_;
    AccessType a_;
    PageIndex page_;
    void (*done_)(void *) = nullptr; ///< null: arg_ is a coroutine
    void *arg_ = nullptr;            ///< set once parked
    std::exception_ptr error_;       ///< what the touch threw
};

/**
 * migratePages' awaiter: the call's delay, then the move, then, only
 * when the move zero-filled pages, the zero-fill charge as a second
 * event. The move runs in a scheduled callback so that the zero-fill
 * charge can follow it; an error it throws reaches the awaiting
 * coroutine.
 */
class [[nodiscard]] Kernel::Migrate
{
  public:
    bool await_ready();
    void await_suspend(std::coroutine_handle<> h);

    std::uint64_t
    await_resume() const
    {
        if (error_)
            std::rethrow_exception(error_);
        return moved_;
    }

  private:
    friend class Kernel;

    /** migratePagesNow, noting the zero-fill charge it leaves. */
    void move();

    /** The callback at the end of the delay: move, then resume. */
    void finish();

    Kernel *k_;
    SegmentId src_;
    SegmentId dst_;
    PageIndex srcPage_;
    PageIndex dstPage_;
    std::uint64_t pages_;
    std::uint32_t set_;
    std::uint32_t clear_;
    sim::Duration wait_;         ///< the call's charge
    sim::Duration zeroWait_ = 0; ///< the zero-fill charge, once moved
    std::uint64_t moved_ = 0;
    std::coroutine_handle<> handle_;
    std::exception_ptr error_;
};

/** modifyPageFlags' awaiter: the call's delay, then the edit. */
struct [[nodiscard]] Kernel::FlagEdit : sim::Simulation::DelayAwaiter
{
    std::uint64_t
    await_resume() const
    {
        return k->modifyPageFlagsNow(seg, page, pages, set, clear);
    }

    Kernel *k;
    SegmentId seg;
    PageIndex page;
    std::uint64_t pages;
    std::uint32_t set;
    std::uint32_t clear;
};

inline Kernel::Touch
Kernel::touchSegment(Process &p, SegmentId seg, PageIndex page,
                     AccessType a)
{
    return Touch(*this, p, seg, page, a);
}

inline Kernel::CpuTouch
Kernel::touchOnCpu(unsigned cpu, Process &p, SegmentId seg,
                   PageIndex page, AccessType a)
{
    return CpuTouch(*this, cpu, p, seg, page, a);
}

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

/**
 * Run an awaiter that is not a Task (a touch, a flag edit, a
 * migration) to completion (test helper). It is awaited directly, so
 * the helper adds no frame around it.
 */
template <typename A>
    requires requires(A &a) { a.await_resume(); }
auto
runTask(sim::Simulation &s, A a)
{
    using T = decltype(a.await_resume());
    if constexpr (std::is_void_v<T>) {
        bool done = false;
        s.spawn([](A aw, bool *d) -> sim::Task<> {
            co_await aw;
            *d = true;
        }(std::move(a), &done));
        s.run();
        if (!done)
            throw sim::SimPanic("task did not complete");
    } else {
        std::optional<T> out;
        s.spawn([](A aw, std::optional<T> *o) -> sim::Task<> {
            o->emplace(co_await aw);
        }(std::move(a), &out));
        s.run();
        if (!out)
            throw sim::SimPanic("task did not complete");
        return std::move(*out);
    }
}

} // namespace vpp::kernel

#endif // VPP_CORE_KERNEL_H
