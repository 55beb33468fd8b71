#include "appmgr/prefetch_mgr.h"

#include <vector>

#include "uio/paging.h"

namespace vpp::appmgr {

using kernel::Fault;
using kernel::Kernel;
using kernel::PageIndex;
using kernel::SegmentId;
namespace flag = kernel::flag;

PrefetchingManager::PrefetchingManager(Kernel &k,
                                       mgr::SystemPageCacheManager *spcm,
                                       kernel::UserId uid,
                                       uio::FileServer &server,
                                       std::uint64_t window)
    : GenericSegmentManager(k, "prefetch-mgr",
                            hw::ManagerMode::SameProcess, spcm, uid),
      server_(&server), window_(window),
      fetched_(std::make_unique<sim::Condition>(k.simulation()))
{}

sim::Task<bool>
PrefetchingManager::preFault(Kernel &k, const Fault &f)
{
    // If a prefetch for this page is already in flight, just wait for
    // it instead of fetching twice.
    if (!inFlight_.count({f.segment, f.page}))
        co_return false;
    while (inFlight_.count({f.segment, f.page}))
        co_await fetched_->wait();
    co_return k.segment(f.segment).findPage(f.page) != nullptr;
}

sim::Task<>
PrefetchingManager::afterFault(Kernel &k, const Fault &f)
{
    (void)k;
    if (window_ > 0 && backing_.count(f.segment))
        kern().simulation().spawn(prefetchFrom(f.segment, f.page + 1));
    co_return;
}

sim::Task<>
PrefetchingManager::fillPage(Kernel &k, const Fault &f,
                             PageIndex dst_page, PageIndex free_slot)
{
    auto it = backing_.find(f.segment);
    if (it == backing_.end())
        co_return;
    ++demandFills_;
    const std::uint32_t page_size = k.segment(f.segment).pageSize();
    co_await uio::pageIn(k, *server_, it->second,
                         static_cast<std::uint64_t>(dst_page) * page_size,
                         freeSegment(), free_slot);
    co_await k.chargeCopy(page_size);
}

sim::Task<>
PrefetchingManager::writeBack(Kernel &k, SegmentId seg, PageIndex page)
{
    auto it = backing_.find(seg);
    if (it == backing_.end())
        co_return;
    const std::uint32_t page_size = k.segment(seg).pageSize();
    co_await uio::pageOut(k, *server_, it->second,
                          static_cast<std::uint64_t>(page) * page_size,
                          seg, page);
}

sim::Task<>
PrefetchingManager::prefetchFrom(SegmentId seg, PageIndex first)
{
    Kernel &k = kern();
    uio::FileId file = backing_.at(seg);
    const std::uint32_t page_size = k.segment(seg).pageSize();
    const std::uint64_t file_pages =
        (server_->fileSize(file) + page_size - 1) / page_size;

    for (PageIndex p = first;
         p < first + window_ && p < file_pages; ++p) {
        if (k.segment(seg).findPage(p) ||
            inFlight_.count({seg, p})) {
            continue;
        }
        if (freePages() == 0) {
            if (co_await requestFrames(requestBatch_) == 0)
                co_return; // out of memory: stop prefetching
        }
        auto run = takeFreeRun(1);
        if (run.empty())
            co_return;
        inFlight_.insert({seg, p});
        co_await uio::pageIn(k, *server_, file,
                             static_cast<std::uint64_t>(p) * page_size,
                             freeSegment(), run[0]);
        // The demand fault may have resolved the page while the disk
        // was busy; give the frame back in that case.
        if (!k.segment(seg).findPage(p)) {
            co_await migrate(k, freeSegment(), seg, run[0], p, 1,
                             flag::kReadable | flag::kWritable,
                             flag::kDirty | flag::kReferenced);
            slotEmptied(run[0]);
            ++prefetched_;
        } else {
            slotFilled(run[0]);
        }
        inFlight_.erase({seg, p});
        fetched_->notifyAll();
    }
}

} // namespace vpp::appmgr
