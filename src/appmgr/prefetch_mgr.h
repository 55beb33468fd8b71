/**
 * @file
 * Application-directed read-ahead and writeback (paper §1, §2.2).
 *
 * "Scientific computations using large data sets can often predict
 * their data access patterns well in advance, which allows the disk
 * access latency to be overlapped with current computation."
 *
 * The PrefetchingManager manages file-backed segments scanned
 * sequentially: a demand fault fetches the faulting page and kicks off
 * asynchronous prefetch of the next `window` pages, so subsequent
 * faults find their pages already resident. Dirty pages of
 * intermediate data marked discardable are dropped without writeback,
 * conserving I/O bandwidth (the matrix example in §2.2).
 */

#ifndef VPP_APPMGR_PREFETCH_MGR_H
#define VPP_APPMGR_PREFETCH_MGR_H

#include <cstdint>
#include <set>
#include <unordered_map>

#include "managers/generic.h"
#include "uio/block_io.h"
#include "uio/file_server.h"

namespace vpp::appmgr {

class PrefetchingManager : public mgr::GenericSegmentManager
{
  public:
    PrefetchingManager(kernel::Kernel &k,
                       mgr::SystemPageCacheManager *spcm,
                       kernel::UserId uid, uio::FileServer &server,
                       std::uint64_t window = 8);

    /** Manage @p seg as a sequential scan of backing file @p f. */
    void
    attach(kernel::SegmentId seg, uio::FileId f)
    {
        backing_[seg] = f;
    }

    std::uint64_t window() const { return window_; }
    void setWindow(std::uint64_t w) { window_ = w; }

    std::uint64_t demandFills() const { return demandFills_; }
    std::uint64_t prefetchedPages() const { return prefetched_; }

  protected:
    sim::Task<bool> preFault(kernel::Kernel &k,
                             const kernel::Fault &f) override;

    sim::Task<> afterFault(kernel::Kernel &k,
                           const kernel::Fault &f) override;

    sim::Task<> fillPage(kernel::Kernel &k, const kernel::Fault &f,
                         kernel::PageIndex dst_page,
                         kernel::PageIndex free_slot) override;

    sim::Task<> writeBack(kernel::Kernel &k, kernel::SegmentId seg,
                          kernel::PageIndex page) override;

  private:
    sim::Task<> prefetchFrom(kernel::SegmentId seg,
                             kernel::PageIndex first);

    uio::FileServer *server_;
    std::uint64_t window_;
    std::unordered_map<kernel::SegmentId, uio::FileId> backing_;
    std::set<std::pair<kernel::SegmentId, kernel::PageIndex>> inFlight_;
    std::unique_ptr<sim::Condition> fetched_;
    std::uint64_t demandFills_ = 0;
    std::uint64_t prefetched_ = 0;
};

} // namespace vpp::appmgr

#endif // VPP_APPMGR_PREFETCH_MGR_H
