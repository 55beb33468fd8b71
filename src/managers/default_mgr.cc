#include "managers/default_mgr.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "uio/paging.h"

namespace vpp::mgr {

using kernel::AccessType;
using kernel::Fault;
using kernel::FaultType;
using kernel::Kernel;
using kernel::PageIndex;
using kernel::SegmentId;
namespace flag = kernel::flag;

DefaultSegmentManager::DefaultSegmentManager(Kernel &k,
                                             SystemPageCacheManager *spcm,
                                             uio::FileServer &server,
                                             uio::FileRegistry &reg,
                                             DefaultManagerParams params)
    : GenericSegmentManager(k, "ucds", hw::ManagerMode::SeparateProcess,
                            spcm, kernel::kSystemUser),
      server_(&server), reg_(&reg), params_(params)
{
    requestBatch_ = params_.requestBatch
                        ? params_.requestBatch
                        : 2 * k.config().mgrRequestBatch;
    policy::PolicyParams pp;
    pp.capacityHint = k.config().frames();
    // WSClock ages in simulated time here (setNow = sim ns); a
    // frame-count-derived window would be meaningless.
    pp.wsTau = static_cast<std::uint64_t>(sim::msec(100));
    policy_ = policy::make(k.config().replacementPolicy, pp);
}

sim::Task<SegmentId>
DefaultSegmentManager::openFile(uio::FileId f)
{
    if (reg_->isCached(f))
        co_return reg_->segmentOf(f);
    const std::uint32_t page_size = kern().config().pageSize;
    std::uint64_t size = server_->fileSize(f);
    // Leave generous room for appends: files can grow while cached.
    std::uint64_t limit = (size / page_size) + (64 << 20) / page_size;
    SegmentId seg = co_await kern().createSegment(
        server_->fileName(f), page_size, limit, uid(), this);
    reg_->bind(f, seg, size);
    managed_.insert(seg);
    co_return seg;
}

sim::Task<>
DefaultSegmentManager::closeFile(uio::FileId f)
{
    if (!reg_->isCached(f))
        co_return;
    SegmentId seg = reg_->segmentOf(f);
    // destroySegment notifies us (segmentClosed) and we reclaim the
    // frames, writing dirty pages back to the server.
    co_await kern().destroySegment(seg);
    reg_->unbind(f);
}

sim::Task<SegmentId>
DefaultSegmentManager::createAnonymous(std::string name,
                                       std::uint64_t pages,
                                       kernel::UserId owner)
{
    SegmentId seg = co_await kern().createSegment(
        std::move(name), kern().config().pageSize, pages, owner, this);
    managed_.insert(seg);
    co_return seg;
}

sim::Task<>
DefaultSegmentManager::segmentClosed(Kernel &k, SegmentId s)
{
    // Persistent policies drop the segment's pages before the frames
    // go away (the Clock policy rebuilds per pass and keeps nothing).
    if (!policy_->interleavedSweep() && k.segmentExists(s)) {
        for (const auto &[page, entry] : k.segment(s).pages())
            policy_->remove(policy::makePageId(s, page));
    }
    co_await GenericSegmentManager::segmentClosed(k, s);
    managed_.erase(s);
}

sim::Task<>
DefaultSegmentManager::fillPage(Kernel &k, const Fault &f,
                                PageIndex dst_page, PageIndex free_slot)
{
    uio::FileId file = reg_->fileOf(f.segment);
    if (file == uio::kInvalidFile)
        co_return; // anonymous segment: SPCM zero policy applies
    const std::uint32_t page_size = k.segment(f.segment).pageSize();
    std::uint64_t offset =
        static_cast<std::uint64_t>(dst_page) * page_size;
    if (offset >= server_->fileSize(file))
        co_return; // append beyond backing store: nothing to read
    co_await uio::pageIn(k, *server_, file, offset, freeSegment(),
                         free_slot);
    if (spcm())
        spcm()->noteIo(spcmClient(), page_size);
    co_await k.chargeCopy(page_size);
}

sim::Task<>
DefaultSegmentManager::afterFault(Kernel &k, const Fault &f)
{
    // Live admission stream for persistent policies (2Q's ghost
    // promotion needs to see faults as they happen). The Clock policy
    // rebuilds from reference bits each pass and must not observe
    // mid-pass events, or it would diverge from the legacy sweep.
    (void)k;
    if (!policy_->interleavedSweep())
        policy_->insert(policy::makePageId(f.segment, f.page));
    return {};
}

sim::Task<>
DefaultSegmentManager::handleProtection(Kernel &k, const Fault &f)
{
    ++samplingFaults_;
    if (!policy_->interleavedSweep())
        policy_->touch(policy::makePageId(f.segment, f.page));
    // Re-enable a batch of contiguous pages to amortise sampling
    // faults (paper §2.3).
    std::uint64_t n = params_.protBatchPages;
    const kernel::Segment &seg = k.segment(f.segment);
    n = std::min<std::uint64_t>(n, seg.pageLimit() - f.page);
    co_await k.modifyPageFlags(f.segment, f.page, n,
                               flag::kReadable | flag::kWritable, 0);
}

sim::Task<>
DefaultSegmentManager::writeBack(Kernel &k, SegmentId seg,
                                 PageIndex page)
{
    uio::FileId file = reg_->fileOf(seg);
    if (file == uio::kInvalidFile)
        co_return; // anonymous pages have no backing store
    const std::uint32_t page_size = k.segment(seg).pageSize();
    co_await uio::pageOut(k, *server_, file,
                          static_cast<std::uint64_t>(page) * page_size,
                          seg, page);
    if (spcm())
        spcm()->noteIo(spcmClient(), page_size);
}

std::uint64_t
DefaultSegmentManager::allocCount(Kernel &k, const Fault &f)
{
    // Appends to cached files are allocated in 16 KB units.
    if (f.access != AccessType::Write)
        return 1;
    if (reg_->fileOf(f.segment) == uio::kInvalidFile)
        return 1;
    const kernel::Segment &seg = k.segment(f.segment);
    if (auto last = seg.pages().maxPage(); last && f.page <= *last)
        return 1; // overwrite within the resident part: single page
    return params_.appendUnitPages;
}

sim::Task<std::uint64_t>
DefaultSegmentManager::clockPass(std::uint64_t target_reclaim)
{
    // A second pass would restart the policy's pass under this one and
    // share its buffers.
    if (passRunning_)
        throw std::logic_error("clockPass: a pass is already running");
    passRunning_ = true;
    std::uint64_t reclaimed = 0;
    try {
        reclaimed = co_await runPass(target_reclaim);
    } catch (...) {
        passRunning_ = false;
        throw;
    }
    passRunning_ = false;
    co_return reclaimed;
}

sim::Task<std::uint64_t>
DefaultSegmentManager::runPass(std::uint64_t target_reclaim)
{
    ++clockPasses_;
    const bool interleaved = policy_->interleavedSweep();
    policy_->beginPass(
        static_cast<std::uint64_t>(kern().simulation().now()));
    std::uint64_t reclaimed = 0;
    passSegs_.assign(managed_.begin(), managed_.end());
    for (SegmentId sid : passSegs_) {
        if (!kern().segmentExists(sid))
            continue;
        kernel::Segment &seg = kern().segment(sid);

        // Sample the segment in canonical page order: feed every
        // unpinned page to the policy (the Clock policy's per-pass
        // ring gets exactly the legacy snapshot) and collect the
        // referenced ones for the flag sweep. Reclaim mutates the
        // map, so sampling completes before any eviction.
        std::vector<PageIndex> &referenced = passReferenced_;
        referenced.clear();
        for (const auto &[page, entry] : seg.pages()) {
            if (entry.flags & flag::kPinned)
                continue;
            policy::PageId key = policy::makePageId(sid, page);
            policy_->insert(key);
            if (entry.flags & flag::kReferenced) {
                referenced.push_back(page);
                policy_->touch(key);
            }
        }

        // Referenced pages survive but lose protection so the next
        // touch is sampled; batch contiguous runs into single
        // ModifyPageFlags calls.
        std::size_t i = 0;
        while (i < referenced.size()) {
            std::size_t j = i;
            while (j + 1 < referenced.size() &&
                   referenced[j + 1] == referenced[j] + 1) {
                ++j;
            }
            co_await kern().modifyPageFlags(
                sid, referenced[i], j - i + 1, 0,
                flag::kReferenced | flag::kReadable | flag::kWritable);
            i = j + 1;
        }

        // Segment-interleaved shape (Clock): evict from what has been
        // sampled so far — this segment's unreferenced pages, in
        // order — and early-exit once the target is met, leaving
        // later segments untouched, exactly as the hard-wired clock
        // always did.
        if (interleaved) {
            while (reclaimed < target_reclaim) {
                std::optional<policy::PageId> v = policy_->victim();
                if (!v)
                    break;
                co_await reclaimPage(kern(), policy::segmentOf(*v),
                                     policy::pageOf(*v));
                ++reclaimed;
            }
            if (reclaimed >= target_reclaim)
                break;
        }
    }

    // Global shape (SLRU/2Q/WSClock): every segment sampled and
    // rearmed first, then victims in policy order regardless of
    // segment. Stale entries (pages gone via kernel bypass) are
    // skipped without counting.
    if (!interleaved) {
        while (reclaimed < target_reclaim) {
            std::optional<policy::PageId> v = policy_->victim();
            if (!v)
                break;
            SegmentId vs = policy::segmentOf(*v);
            PageIndex vp = policy::pageOf(*v);
            if (!kern().segmentExists(vs))
                continue;
            const kernel::PageEntry *e =
                kern().segment(vs).findPage(vp);
            if (!e || (e->flags & flag::kPinned))
                continue;
            co_await reclaimPage(kern(), vs, vp);
            ++reclaimed;
        }
    }
    co_return reclaimed;
}

sim::Task<std::uint64_t>
DefaultSegmentManager::syncPass()
{
    std::uint64_t written = 0;
    for (SegmentId sid : std::vector<SegmentId>(managed_.begin(),
                                                managed_.end())) {
        if (!kern().segmentExists(sid))
            continue;
        if (reg_->fileOf(sid) == uio::kInvalidFile)
            continue; // anonymous memory has no backing store
        std::vector<PageIndex> dirty;
        dirty.reserve(kern().segment(sid).pages().size());
        for (const auto &[page, entry] : kern().segment(sid).pages()) {
            if ((entry.flags & flag::kDirty) &&
                !(entry.flags & flag::kDiscardable)) {
                dirty.push_back(page);
            }
        }
        for (PageIndex p : dirty) {
            co_await writeBack(kern(), sid, p);
            co_await kern().modifyPageFlags(sid, p, 1, 0, flag::kDirty);
            ++written;
        }
    }
    co_return written;
}

void
DefaultSegmentManager::startSyncDaemon(sim::Duration interval)
{
    syncRunning_ = true;
    kern().simulation().spawn(
        [](DefaultSegmentManager *self,
           sim::Duration ival) -> sim::Task<> {
            while (self->syncRunning_) {
                co_await self->kern().simulation().delay(ival);
                if (!self->syncRunning_)
                    break;
                co_await self->syncPass();
            }
        }(this, interval));
}

void
DefaultSegmentManager::preloadFileNow(uio::FileId f)
{
    SegmentId seg;
    if (reg_->isCached(f)) {
        seg = reg_->segmentOf(f);
    } else {
        const std::uint32_t page_size = kern().config().pageSize;
        std::uint64_t size = server_->fileSize(f);
        std::uint64_t limit =
            (size / page_size) + (64 << 20) / page_size;
        seg = kern().createSegmentNow(server_->fileName(f), page_size,
                                      limit, uid(), this);
        reg_->bind(f, seg, size);
        managed_.insert(seg);
    }
    const std::uint32_t page_size = kern().config().pageSize;
    std::uint64_t npages =
        (server_->fileSize(f) + page_size - 1) / page_size;
    for (PageIndex p = 0; p < npages; ++p) {
        if (kern().segment(seg).findPage(p))
            continue;
        if (freePages() == 0) {
            auto slots = takeEmptySlots(requestBatch_);
            std::uint64_t granted =
                spcm() ? spcm()->grantNow(spcmClient(), freeSegment(),
                                          slots)
                       : 0;
            for (std::uint64_t i = 0; i < granted; ++i)
                slotFilled(slots[i]);
            for (std::uint64_t i = granted; i < slots.size(); ++i)
                slotEmptied(slots[i]);
            if (granted == 0) {
                throw kernel::KernelError(
                    kernel::KernelErrc::LimitExceeded,
                    "preload: out of frames");
            }
        }
        auto run = takeFreeRun(1);
        uio::pageInNow(kern(), *server_, f,
                       static_cast<std::uint64_t>(p) * page_size,
                       freeSegment(), run[0]);
        kern().migratePagesNow(freeSegment(), seg, run[0], p, 1,
                               flag::kReadable | flag::kWritable,
                               flag::kDirty | flag::kReferenced);
        slotEmptied(run[0]);
    }
}

} // namespace vpp::mgr
