/**
 * @file
 * Generic segment manager (paper §2.2, final paragraph).
 *
 * "An application segment manager can be 'specialized' from a generic
 * or standard segment manager using inheritance ... The generic
 * implementation provides data structures for managing the free page
 * segment and basic page faulting handling. The page replacement
 * selection routines and page fill routines can be easily specialized."
 *
 * GenericSegmentManager owns a free-page segment, satisfies missing-
 * page and copy-on-write faults by migrating frames from it, reclaims
 * pages back into it (with a write-back hook for dirty data), and
 * trades frames with the System Page Cache Manager. Subclasses
 * specialise the fill, protection, write-back, victim-selection and
 * allocation-batching hooks.
 */

#ifndef VPP_MANAGERS_GENERIC_H
#define VPP_MANAGERS_GENERIC_H

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/kernel.h"
#include "managers/slot_pool.h"
#include "managers/spcm.h"

namespace vpp::mgr {

class GenericSegmentManager : public kernel::SegmentManager
{
  public:
    GenericSegmentManager(kernel::Kernel &k, std::string name,
                          hw::ManagerMode mode,
                          SystemPageCacheManager *spcm,
                          kernel::UserId uid);

    /**
     * Create the free-page segment with room for @p capacity frames
     * and stock it with @p initial_frames from the SPCM.
     */
    sim::Task<> init(std::uint64_t capacity,
                     std::uint64_t initial_frames);

    /** Zero-time variant of init() for benchmark setup. */
    void initNow(std::uint64_t capacity, std::uint64_t initial_frames);

    sim::Task<> handleFault(kernel::Kernel &k,
                            const kernel::Fault &f) final;

    /**
     * Batched delivery (MachineConfig::faultCoalescing): tops the free
     * pool up once for the whole batch, then resolves each fault,
     * skipping pages a batch-mate's run allocation already installed.
     */
    sim::Task<> handleFaults(kernel::Kernel &k,
                             std::span<const kernel::Fault> fs) override;

    sim::Task<> segmentClosed(kernel::Kernel &k,
                              kernel::SegmentId s) override;

    // ------------------------------------------------------------------
    // Free-pool management
    // ------------------------------------------------------------------

    kernel::SegmentId freeSegment() const { return freeSeg_; }
    std::uint64_t freePages() const { return freeSlots_.size(); }

    /** Ask the SPCM for @p n more frames. Returns frames received. */
    sim::Task<std::uint64_t> requestFrames(std::uint64_t n,
                                           Constraint c = {});

    /** Return up to @p n frames from the free pool to the SPCM. */
    sim::Task<std::uint64_t> surrenderFrames(std::uint64_t n);

    /**
     * Reclaim a present page of a managed segment into the free pool,
     * writing dirty data back first (via the writeBack hook) unless
     * the page is marked discardable.
     */
    sim::Task<> reclaimPage(kernel::Kernel &k, kernel::SegmentId seg,
                            kernel::PageIndex page);

    /**
     * Reclaim a contiguous run of present pages with as few
     * MigratePages invocations as the free pool's empty-slot layout
     * allows (used for segment teardown). Returns pages reclaimed.
     */
    sim::Task<std::uint64_t>
    reclaimRun(kernel::Kernel &k, kernel::SegmentId seg,
               kernel::PageIndex first, std::uint64_t pages);

    ClientId spcmClient() const { return client_; }
    kernel::UserId uid() const { return uid_; }

    /** MigratePages invocations issued by this manager (Table 3). */
    std::uint64_t migrateInvocations() const { return migrates_; }

    /** Faults resolved, pages reclaimed, write-backs (observability). */
    std::uint64_t pagesAllocated() const { return pagesAllocated_; }
    std::uint64_t pagesReclaimed() const { return pagesReclaimed_; }
    std::uint64_t writeBacks() const { return writeBacks_; }

    void
    resetActivity()
    {
        resetStats();
        migrates_ = 0;
        pagesAllocated_ = 0;
        pagesReclaimed_ = 0;
        writeBacks_ = 0;
    }

  protected:
    // ------------------------------------------------------------------
    // Specialisation hooks. A default that never suspends returns a
    // ready task, so only an override that waits builds a coroutine
    // frame.
    // ------------------------------------------------------------------

    /**
     * First crack at a missing-page/copy-on-write fault before the
     * generic allocate-fill-migrate path runs. Return true if the
     * fault is fully handled (e.g. the page was already being
     * prefetched and is now resident). Default: false.
     */
    virtual sim::Task<bool>
    preFault(kernel::Kernel &k, const kernel::Fault &f)
    {
        (void)k;
        (void)f;
        return sim::Task<bool>::ready(false);
    }

    /**
     * Runs after a missing-page fault has been resolved; the hook for
     * policies that react to demand (e.g. issuing read-ahead).
     */
    virtual sim::Task<>
    afterFault(kernel::Kernel &k, const kernel::Fault &f)
    {
        (void)k;
        (void)f;
        return {};
    }

    /**
     * Fill the free-pool page at @p free_slot with the data that
     * belongs at (fault segment, @p dst_page) before it is migrated
     * in. Default: leave as is (anonymous memory).
     */
    virtual sim::Task<>
    fillPage(kernel::Kernel &k, const kernel::Fault &f,
             kernel::PageIndex dst_page, kernel::PageIndex free_slot)
    {
        (void)k;
        (void)f;
        (void)dst_page;
        (void)free_slot;
        return {};
    }

    /** Resolve a protection fault. Default: re-enable access. */
    virtual sim::Task<>
    handleProtection(kernel::Kernel &k, const kernel::Fault &f)
    {
        co_await k.modifyPageFlags(f.segment, f.page, 1,
                                   kernel::flag::kReadable |
                                       kernel::flag::kWritable,
                                   0);
    }

    /**
     * Write a dirty page's data to backing store before its frame is
     * reused. Default: nothing (no backing store).
     */
    virtual sim::Task<>
    writeBack(kernel::Kernel &k, kernel::SegmentId seg,
              kernel::PageIndex page)
    {
        (void)k;
        (void)seg;
        (void)page;
        return {};
    }

    /**
     * How many pages to allocate for this missing-page fault (e.g.
     * the default manager allocates appends in 16 KB units). The
     * result is clamped to the free pool, the segment limit and the
     * next present page. Default: 1.
     */
    virtual std::uint64_t
    allocCount(kernel::Kernel &k, const kernel::Fault &f)
    {
        (void)k;
        (void)f;
        return 1;
    }

    /**
     * Free the pool is empty and a fault needs a frame: reclaim
     * something. Default: request a batch from the SPCM.
     */
    virtual sim::Task<> replenish(kernel::Kernel &k);

    /** Protection bits for newly installed pages. Default: R|W. */
    virtual std::uint32_t
    pageProt(const kernel::Fault &f)
    {
        (void)f;
        return kernel::flag::kReadable | kernel::flag::kWritable;
    }

    /**
     * Pick the free-pool slots whose frames will satisfy this fault.
     * Default: any contiguous run. Policies that care about *which*
     * physical frame backs a page (coloring, placement) override
     * this. The returned slots must come from the free pool (via
     * takeFreeRun or equivalent) and be contiguous.
     */
    virtual sim::Task<SlotRun>
    chooseSlots(kernel::Kernel &k, const kernel::Fault &f,
                std::uint64_t n)
    {
        (void)k;
        (void)f;
        return sim::Task<SlotRun>::ready(takeFreeRun(n));
    }

    /**
     * Charged MigratePages wrapper that also counts invocations; it
     * returns the kernel's awaiter, so await it at once.
     */
    kernel::Kernel::Migrate
    migrate(kernel::Kernel &k, kernel::SegmentId src,
            kernel::SegmentId dst, kernel::PageIndex src_page,
            kernel::PageIndex dst_page, std::uint64_t pages,
            std::uint32_t set_flags, std::uint32_t clear_flags)
    {
        ++migrates_;
        return k.migratePages(src, dst, src_page, dst_page, pages,
                              set_flags, clear_flags);
    }

    /**
     * Find @p n contiguous allocated slots in the free pool; if no
     * such run exists, return the longest available prefix (possibly
     * a single slot).
     */
    SlotRun takeFreeRun(std::uint64_t n);

    /** Pop @p n empty slots to receive incoming frames. */
    std::vector<kernel::PageIndex> takeEmptySlots(std::uint64_t n);

    /** Pop a contiguous run of up to @p n empty slots. */
    SlotRun takeEmptyRun(std::uint64_t n);

    void
    slotFilled(kernel::PageIndex slot)
    {
        freeSlots_.insert(slot);
    }

    void
    slotEmptied(kernel::PageIndex slot)
    {
        emptySlots_.insert(slot);
    }

    /** Inspect the allocated free-pool slots (policy overrides). */
    const SlotPool &
    freeSlotSet() const
    {
        return freeSlots_;
    }

    /** Claim one specific free slot; false if it is not free. */
    bool
    takeSlot(kernel::PageIndex slot)
    {
        return freeSlots_.erase(slot);
    }

    /**
     * Whether kDiscardable pages may skip writeback on reclaim. A
     * conventional-policy comparator overrides this to false.
     */
    virtual bool honorsDiscardable() const { return true; }

    kernel::Kernel &kern() { return *kern_; }
    SystemPageCacheManager *spcm() { return spcm_; }

    /// Frames per SPCM request; seeded from
    /// MachineConfig::mgrRequestBatch in the constructor so one knob
    /// drives every manager's allocation batching.
    std::uint64_t requestBatch_ = 32;

  private:
    kernel::Kernel *kern_;
    SystemPageCacheManager *spcm_;
    kernel::UserId uid_;
    ClientId client_ = 0;
    kernel::SegmentId freeSeg_ = kernel::kInvalidSegment;
    SlotPool freeSlots_;  ///< slots holding frames
    SlotPool emptySlots_; ///< slots without frames
    std::uint64_t migrates_ = 0;
    std::uint64_t pagesAllocated_ = 0;
    std::uint64_t pagesReclaimed_ = 0;
    std::uint64_t writeBacks_ = 0;
};

} // namespace vpp::mgr

#endif // VPP_MANAGERS_GENERIC_H
