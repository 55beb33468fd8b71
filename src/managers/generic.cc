#include "managers/generic.h"

#include <algorithm>

namespace vpp::mgr {

using kernel::Fault;
using kernel::FaultType;
using kernel::Kernel;
using kernel::PageIndex;
using kernel::SegmentId;
namespace flag = kernel::flag;

namespace {

sim::Task<>
reclaimThunk(GenericSegmentManager *self, std::uint64_t frames)
{
    co_await self->surrenderFrames(frames);
}

} // namespace

GenericSegmentManager::GenericSegmentManager(Kernel &k, std::string name,
                                             hw::ManagerMode mode,
                                             SystemPageCacheManager *spcm,
                                             kernel::UserId uid)
    : SegmentManager(std::move(name), mode), kern_(&k), spcm_(spcm),
      uid_(uid)
{
    requestBatch_ = k.config().mgrRequestBatch;
    if (spcm_) {
        client_ = spcm_->registerClient(
            SegmentManager::name(), uid, 0.0,
            [this](std::uint64_t n) { return reclaimThunk(this, n); });
    }
}

sim::Task<>
GenericSegmentManager::init(std::uint64_t capacity,
                            std::uint64_t initial_frames)
{
    freeSeg_ = co_await kern_->createSegment(
        SegmentManager::name() + ".free", kern_->config().pageSize,
        capacity, uid_);
    for (PageIndex i = 0; i < capacity; ++i)
        emptySlots_.insert(i);
    if (initial_frames)
        co_await requestFrames(initial_frames);
}

void
GenericSegmentManager::initNow(std::uint64_t capacity,
                               std::uint64_t initial_frames)
{
    freeSeg_ = kern_->createSegmentNow(
        SegmentManager::name() + ".free", kern_->config().pageSize,
        capacity, uid_);
    for (PageIndex i = 0; i < capacity; ++i)
        emptySlots_.insert(i);
    if (initial_frames) {
        auto slots = takeEmptySlots(initial_frames);
        std::uint64_t granted =
            spcm_ ? spcm_->grantNow(client_, freeSeg_, slots)
                  : 0;
        for (std::uint64_t i = 0; i < granted; ++i)
            freeSlots_.insert(slots[i]);
        for (std::uint64_t i = granted; i < slots.size(); ++i)
            emptySlots_.insert(slots[i]);
    }
}

SlotRun
GenericSegmentManager::takeFreeRun(std::uint64_t n)
{
    return freeSlots_.takeRun(n);
}

SlotRun
GenericSegmentManager::takeEmptyRun(std::uint64_t n)
{
    return emptySlots_.takeRun(n);
}

std::vector<PageIndex>
GenericSegmentManager::takeEmptySlots(std::uint64_t n)
{
    return emptySlots_.takeLowest(n);
}

sim::Task<std::uint64_t>
GenericSegmentManager::requestFrames(std::uint64_t n, Constraint c)
{
    if (!spcm_)
        co_return 0;
    auto slots = takeEmptySlots(n);
    std::uint64_t granted =
        co_await spcm_->requestPages(client_, freeSeg_, slots, c);
    for (std::uint64_t i = 0; i < granted; ++i)
        freeSlots_.insert(slots[i]);
    for (std::uint64_t i = granted; i < slots.size(); ++i)
        emptySlots_.insert(slots[i]);
    co_return granted;
}

sim::Task<std::uint64_t>
GenericSegmentManager::surrenderFrames(std::uint64_t n)
{
    if (!spcm_)
        co_return 0;
    // Give back the highest slots first; low slots keep contiguity
    // for append batching.
    std::vector<PageIndex> slots = freeSlots_.takeHighest(n);
    std::uint64_t returned =
        co_await spcm_->returnPages(client_, freeSeg_, slots);
    for (PageIndex s : slots)
        emptySlots_.insert(s);
    co_return returned;
}

sim::Task<>
GenericSegmentManager::replenish(Kernel &k)
{
    (void)k;
    std::uint64_t got = co_await requestFrames(requestBatch_);
    if (got == 0 && freeSlots_.empty()) {
        throw kernel::KernelError(
            kernel::KernelErrc::LimitExceeded,
            SegmentManager::name() + ": no frames available");
    }
}

sim::Task<>
GenericSegmentManager::handleFault(Kernel &k, const Fault &f)
{
    if (f.type == FaultType::Protection) {
        co_await handleProtection(k, f);
        co_return;
    }

    co_await k.simulation().delay(k.config().cost.managerAlloc);

    if (co_await preFault(k, f))
        co_return;

    std::uint64_t n = 1;
    if (f.type == FaultType::MissingPage) {
        n = std::max<std::uint64_t>(1, allocCount(k, f));
        // Clamp to the segment limit and to the next present page.
        const kernel::Segment &seg = k.segment(f.segment);
        n = std::min(n, seg.pageLimit() - f.page);
        for (std::uint64_t i = 1; i < n; ++i) {
            if (seg.findPage(f.page + i)) {
                n = i;
                break;
            }
        }
    }

    if (freeSlots_.empty())
        co_await replenish(k);
    auto run = co_await chooseSlots(k, f, n);
    if (run.empty()) {
        throw kernel::KernelError(
            kernel::KernelErrc::LimitExceeded,
            SegmentManager::name() + ": free pool exhausted");
    }
    n = run.size();

    if (f.type == FaultType::MissingPage) {
        for (std::uint64_t i = 0; i < n; ++i)
            co_await fillPage(k, f, f.page + i, run[i]);
    }

    std::uint32_t set = pageProt(f);
    // Security (paper §3.1): a frame is zeroed only when it is being
    // given to a different user than the one whose data it last held.
    const kernel::UserId owner = k.segment(f.segment).owner();
    for (PageIndex slot : run) {
        const kernel::PageEntry *e =
            k.segment(freeSeg_).findPage(slot);
        kernel::UserId last = k.frameOwner(e->frame).lastUser;
        if (last != owner && last != kernel::kSystemUser) {
            set |= flag::kZeroFill;
            break;
        }
    }
    const std::uint32_t clear =
        (flag::kDirty | flag::kReferenced | flag::kPinned |
         flag::kDiscardable) &
        ~set;
    // Nothing serialises a same-process manager's handlers: one for
    // the same page of a racing process may have installed it while
    // this one waited. The fault is then resolved and the run goes
    // back to the free pool.
    bool lost_race = false;
    try {
        co_await migrate(k, freeSeg_, f.segment, run[0], f.page, n, set,
                         clear);
    } catch (const kernel::KernelError &e) {
        if (e.code() != kernel::KernelErrc::PageBusy ||
            !k.segment(f.segment).findPage(f.page))
            throw;
        lost_race = true;
    }
    if (lost_race) {
        for (PageIndex s : run)
            freeSlots_.insert(s);
        co_return;
    }
    for (PageIndex s : run)
        emptySlots_.insert(s);
    pagesAllocated_ += n;

    if (f.type == FaultType::MissingPage)
        co_await afterFault(k, f);
}

sim::Task<>
GenericSegmentManager::handleFaults(Kernel &k,
                                    std::span<const Fault> fs)
{
    // Top the pool up once for the whole batch: one SPCM round trip
    // replaces the per-fault replenish each member would otherwise
    // trigger on an empty pool.
    std::uint64_t need = 0;
    for (const Fault &f : fs)
        if (f.type != FaultType::Protection)
            ++need;
    if (need > freeSlots_.size()) {
        co_await requestFrames(
            std::max(requestBatch_, need - freeSlots_.size()));
    }
    for (const Fault &f : fs) {
        // A batch-mate's run allocation (allocCount > 1) may have
        // already installed this page; skip the redundant migrate.
        if (f.type == FaultType::MissingPage &&
            k.segment(f.segment).findPage(f.page))
            continue;
        co_await handleFault(k, f);
    }
}

sim::Task<>
GenericSegmentManager::reclaimPage(Kernel &k, SegmentId seg,
                                   PageIndex page)
{
    const kernel::PageEntry *e = k.segment(seg).findPage(page);
    if (!e)
        co_return;
    if ((e->flags & flag::kDirty) &&
        !(honorsDiscardable() && (e->flags & flag::kDiscardable))) {
        co_await writeBack(k, seg, page);
        ++writeBacks_;
    }
    if (emptySlots_.empty()) {
        throw kernel::KernelError(
            kernel::KernelErrc::LimitExceeded,
            SegmentManager::name() + ": free segment full");
    }
    PageIndex slot = emptySlots_.popLowest();
    co_await migrate(k, seg, freeSeg_, page, slot, 1,
                     flag::kReadable | flag::kWritable,
                     flag::kDirty | flag::kReferenced | flag::kPinned |
                         flag::kDiscardable);
    freeSlots_.insert(slot);
    ++pagesReclaimed_;
}

sim::Task<std::uint64_t>
GenericSegmentManager::reclaimRun(Kernel &k, SegmentId seg,
                                  PageIndex first, std::uint64_t pages)
{
    // Write dirty, non-discardable pages back before their frames are
    // reused.
    for (std::uint64_t i = 0; i < pages; ++i) {
        const kernel::PageEntry *e = k.segment(seg).findPage(first + i);
        if (!e)
            throw kernel::KernelError(kernel::KernelErrc::PageMissing,
                                      "reclaimRun");
        if ((e->flags & flag::kDirty) &&
            !(honorsDiscardable() && (e->flags & flag::kDiscardable))) {
            co_await writeBack(k, seg, first + i);
            ++writeBacks_;
        }
    }
    std::uint64_t done = 0;
    while (done < pages) {
        auto slots = takeEmptyRun(pages - done);
        if (slots.empty()) {
            throw kernel::KernelError(
                kernel::KernelErrc::LimitExceeded,
                SegmentManager::name() + ": free segment full");
        }
        co_await migrate(k, seg, freeSegment(), first + done, slots[0],
                         slots.size(),
                         flag::kReadable | flag::kWritable,
                         flag::kDirty | flag::kReferenced |
                             flag::kPinned | flag::kDiscardable);
        for (PageIndex s : slots)
            freeSlots_.insert(s);
        done += slots.size();
        pagesReclaimed_ += slots.size();
    }
    co_return done;
}

sim::Task<>
GenericSegmentManager::segmentClosed(Kernel &k, SegmentId s)
{
    // Gather the present pages as contiguous runs and reclaim each run
    // with as few MigratePages calls as possible.
    std::vector<std::pair<PageIndex, std::uint64_t>> runs;
    for (const auto &[page, entry] : k.segment(s).pages()) {
        if (!runs.empty() &&
            runs.back().first + runs.back().second == page) {
            ++runs.back().second;
        } else {
            runs.emplace_back(page, 1);
        }
    }
    for (const auto &[first, count] : runs)
        co_await reclaimRun(k, s, first, count);
}

} // namespace vpp::mgr
