#include "core/kernel.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <sstream>
#include <utility>

#include "ipc/cross.h"

namespace vpp::kernel {

const char *
kernelErrcName(KernelErrc e)
{
    switch (e) {
      case KernelErrc::BadSegment: return "BadSegment";
      case KernelErrc::BadPage: return "BadPage";
      case KernelErrc::PageBusy: return "PageBusy";
      case KernelErrc::PageMissing: return "PageMissing";
      case KernelErrc::NotContiguous: return "NotContiguous";
      case KernelErrc::BadAlignment: return "BadAlignment";
      case KernelErrc::SizeMismatch: return "SizeMismatch";
      case KernelErrc::NoManager: return "NoManager";
      case KernelErrc::Permission: return "Permission";
      case KernelErrc::LimitExceeded: return "LimitExceeded";
      case KernelErrc::FaultLoop: return "FaultLoop";
      case KernelErrc::IoError: return "IoError";
      case KernelErrc::ManagerUnresponsive: return "ManagerUnresponsive";
    }
    return "Unknown";
}

const char *
faultTypeName(FaultType t)
{
    switch (t) {
      case FaultType::MissingPage: return "MissingPage";
      case FaultType::Protection: return "Protection";
      case FaultType::CopyOnWrite: return "CopyOnWrite";
    }
    return "Unknown";
}

Kernel::Kernel(sim::Simulation &s, const hw::MachineConfig &config)
    : sim_(&s), config_(config),
      memory_(config.memoryBytes, config.pageSize)
{
    // On initialisation the kernel creates a well-known segment that
    // includes all the page frames in physical-address order (§2.1).
    auto phys = std::make_unique<Segment>(
        kPhysSegment, "physmem", config_.pageSize, memory_.numFrames(),
        kSystemUser);
    frames_.resize(memory_.numFrames());
    for (hw::FrameId f = 0; f < memory_.numFrames(); ++f) {
        phys->pages()[f] =
            PageEntry{f, flag::kReadable | flag::kWritable};
        frames_[f] = FrameOwner{kPhysSegment, f, kSystemUser};
    }
    segments_.push_back(std::move(phys));
    segEpochs_.push_back(1); // phys segment's mutation epoch
    nextSegment_ = 1;
    if (config_.modelTlb)
        tlb_ = std::make_unique<hw::Tlb>(config_.tlbEntries);
}

void
Kernel::throwBadSegment(SegmentId s)
{
    throw KernelError(KernelErrc::BadSegment,
                      "segment " + std::to_string(s));
}

bool
Kernel::segmentExists(SegmentId s) const
{
    return s < segments_.size() && segments_[s] != nullptr;
}

Segment &
Kernel::segment(SegmentId s)
{
    return segmentOrThrow(s);
}

const Segment &
Kernel::segment(SegmentId s) const
{
    return segmentOrThrow(s);
}

const FrameOwner &
Kernel::frameOwner(hw::FrameId f) const
{
    if (f >= frames_.size())
        throw KernelError(KernelErrc::BadPage,
                          "frame " + std::to_string(f));
    return frames_[f];
}

std::uint64_t
Kernel::physSegmentFrames() const
{
    return segmentOrThrow(kPhysSegment).presentPages();
}

std::uint32_t
Kernel::framesPerPage(const Segment &s) const
{
    return s.pageSize() / memory_.frameSize();
}

// ----------------------------------------------------------------------
// Functional primitives (zero simulated time)
// ----------------------------------------------------------------------

SegmentId
Kernel::createSegmentNow(std::string name, std::uint32_t page_size,
                         std::uint64_t page_limit, UserId owner,
                         SegmentManager *mgr)
{
    if (page_size < memory_.frameSize() ||
        page_size % memory_.frameSize() != 0) {
        throw KernelError(KernelErrc::BadAlignment,
                          "page size must be a multiple of the frame "
                          "size");
    }
    SegmentId id = nextSegment_++;
    auto seg = std::make_unique<Segment>(id, std::move(name), page_size,
                                         page_limit, owner);
    seg->setManager(mgr);
    if (id >= segments_.size())
        segments_.resize(id + 1);
    if (id >= segEpochs_.size())
        segEpochs_.resize(id + 1, 1);
    segments_[id] = std::move(seg);
    ++stats_.segmentsCreated;
    return id;
}

void
Kernel::setSegmentManagerNow(SegmentId seg, SegmentManager *mgr)
{
    segmentOrThrow(seg).setManager(mgr);
}

void
Kernel::bindRegionNow(SegmentId seg, PageIndex at, std::uint64_t pages,
                      SegmentId target, PageIndex target_start,
                      std::uint32_t prot, bool copy_on_write)
{
    Segment &s = segmentOrThrow(seg);
    Segment &t = segmentOrThrow(target);
    if (seg == target)
        throw KernelError(KernelErrc::BadSegment, "self-binding");
    if (s.pageSize() != t.pageSize()) {
        throw KernelError(KernelErrc::SizeMismatch,
                          "bound segments must share a page size");
    }
    if (at + pages > s.pageLimit() ||
        target_start + pages > t.pageLimit()) {
        throw KernelError(KernelErrc::LimitExceeded, "binding range");
    }
    if (s.overlapsBinding(at, pages))
        throw KernelError(KernelErrc::PageBusy, "regions overlap");
    s.addBinding(Binding{at, pages, target, target_start,
                         prot & flag::kProtMask, copy_on_write});
    ++bindRefs_[target];
    bumpSegEpoch(seg);
}

void
Kernel::unbindRegionNow(SegmentId seg, PageIndex at)
{
    Segment &s = segmentOrThrow(seg);
    std::optional<Binding> b = s.takeBindingAt(at);
    if (!b)
        throw KernelError(KernelErrc::BadPage, "no region at page");
    --bindRefs_[b->target];
    bumpSegEpoch(seg);
}

void
Kernel::resolveForInstall(SegmentId &seg, PageIndex &page) const
{
    // MigratePages on a bound region operates on the associated
    // segment (§2.1); copy-on-write bindings are not followed, so an
    // install there creates the private shadow page.
    for (int depth = 0; depth < kMaxBindingDepth; ++depth) {
        const Segment &s = segmentOrThrow(seg);
        if (s.findPage(page))
            return;
        const Binding *b = s.findBinding(page);
        if (!b || b->copyOnWrite)
            return;
        seg = b->target;
        page = b->targetStart + (page - b->start);
    }
    throw KernelError(KernelErrc::BadSegment, "binding chain too deep");
}

std::uint64_t
Kernel::migratePagesNow(SegmentId src, SegmentId dst, PageIndex src_page,
                        PageIndex dst_page, std::uint64_t pages,
                        std::uint32_t set_flags, std::uint32_t clear_flags,
                        std::uint64_t *bytes_zeroed)
{
    if (pages == 0)
        return 0;

    resolveForInstall(src, src_page);
    resolveForInstall(dst, dst_page);
    Segment &s = segmentOrThrow(src);
    Segment &d = segmentOrThrow(dst);
    if (src == dst && !(src_page + pages <= dst_page ||
                        dst_page + pages <= src_page)) {
        throw KernelError(KernelErrc::PageBusy,
                          "overlapping self-migration");
    }

    // Single same-sized-page migration is the shape every fault-time
    // frame grant takes; it needs none of the staging vectors or the
    // contiguity analysis below.
    if (pages == 1 && s.pageSize() == d.pageSize()) {
        if (src_page >= s.pageLimit())
            throw KernelError(KernelErrc::LimitExceeded, "source range");
        if (dst_page >= d.pageLimit())
            throw KernelError(KernelErrc::LimitExceeded,
                              "destination range");
        PageEntry *se = s.findPage(src_page);
        if (!se) {
            throw KernelError(KernelErrc::PageMissing,
                              "source page " + std::to_string(src_page));
        }
        if (d.findPage(dst_page)) {
            throw KernelError(KernelErrc::PageBusy,
                              "destination page " +
                                  std::to_string(dst_page));
        }
        const std::uint32_t fpp = framesPerPage(d);
        std::uint32_t fl = (se->flags | set_flags) & ~clear_flags;
        const hw::FrameId base = se->frame;
        s.pages().erase(src_page);
        std::uint64_t zeroed = 0;
        if (fl & flag::kZeroFill) {
            memory_.zeroRange(base, fpp);
            zeroed = d.pageSize();
            fl &= ~(flag::kZeroFill | flag::kDirty);
        }
        d.pages()[dst_page] = PageEntry{base, fl};
        for (std::uint32_t fi = 0; fi < fpp; ++fi) {
            FrameOwner &owner = frames_[base + fi];
            owner.segment = dst;
            owner.page = dst_page;
            if (d.owner() != kSystemUser)
                owner.lastUser = d.owner();
        }
        if (zeroed) {
            ++stats_.zeroFills;
            stats_.bytesZeroed += zeroed;
        }
        if (bytes_zeroed)
            *bytes_zeroed = zeroed;
        ++stats_.pagesMigrated;
        bumpSegEpoch(src);
        bumpSegEpoch(dst);
        return 1;
    }

    const std::uint64_t total_bytes =
        pages * static_cast<std::uint64_t>(s.pageSize());
    if (total_bytes % d.pageSize() != 0) {
        throw KernelError(KernelErrc::SizeMismatch,
                          "source range not a whole number of "
                          "destination pages");
    }
    const std::uint64_t ndst = total_bytes / d.pageSize();

    if (src_page + pages > s.pageLimit())
        throw KernelError(KernelErrc::LimitExceeded, "source range");
    if (dst_page + ndst > d.pageLimit())
        throw KernelError(KernelErrc::LimitExceeded, "destination range");

    // Validate before mutating: all source pages present, all
    // destination pages empty. The staging vectors are pooled: an
    // append fault's multi-page grant allocates nothing.
    sim::PoolVector<const PageEntry *> src_entries;
    src_entries.reserve(pages);
    for (std::uint64_t i = 0; i < pages; ++i) {
        const PageEntry *e = s.findPage(src_page + i);
        if (!e) {
            throw KernelError(KernelErrc::PageMissing,
                              "source page " +
                                  std::to_string(src_page + i));
        }
        src_entries.push_back(e);
    }
    for (std::uint64_t j = 0; j < ndst; ++j) {
        if (d.findPage(dst_page + j)) {
            throw KernelError(KernelErrc::PageBusy,
                              "destination page " +
                                  std::to_string(dst_page + j));
        }
    }

    const std::uint32_t src_fpp = framesPerPage(s);
    const std::uint32_t dst_fpp = framesPerPage(d);

    // When coalescing small pages into a larger destination page, the
    // constituent frames must be physically contiguous and aligned.
    if (s.pageSize() < d.pageSize()) {
        const std::uint64_t k = d.pageSize() / s.pageSize();
        for (std::uint64_t j = 0; j < ndst; ++j) {
            hw::FrameId first = src_entries[j * k]->frame;
            if (first % dst_fpp != 0) {
                throw KernelError(KernelErrc::BadAlignment,
                                  "frames not aligned for large page");
            }
            for (std::uint64_t i = 1; i < k; ++i) {
                if (src_entries[j * k + i]->frame !=
                    first + i * src_fpp) {
                    throw KernelError(KernelErrc::NotContiguous,
                                      "frames not contiguous for large "
                                      "page");
                }
            }
        }
    }

    // Collect (frame, flags) per destination page, then commit.
    struct NewEntry
    {
        hw::FrameId frame;
        std::uint32_t flags;
    };
    sim::PoolVector<NewEntry> new_entries;
    new_entries.reserve(ndst);

    if (s.pageSize() <= d.pageSize()) {
        const std::uint64_t k = d.pageSize() / s.pageSize();
        for (std::uint64_t j = 0; j < ndst; ++j) {
            std::uint32_t fl = 0;
            for (std::uint64_t i = 0; i < k; ++i)
                fl |= src_entries[j * k + i]->flags;
            new_entries.push_back(
                NewEntry{src_entries[j * k]->frame, fl});
        }
    } else {
        const std::uint64_t k = s.pageSize() / d.pageSize();
        for (std::uint64_t i = 0; i < pages; ++i) {
            for (std::uint64_t j = 0; j < k; ++j) {
                new_entries.push_back(NewEntry{
                    static_cast<hw::FrameId>(src_entries[i]->frame +
                                             j * dst_fpp),
                    src_entries[i]->flags});
            }
        }
    }

    // Commit: remove from source, install in destination.
    for (std::uint64_t i = 0; i < pages; ++i)
        s.pages().erase(src_page + i);

    std::uint64_t zeroed = 0;
    for (std::uint64_t j = 0; j < ndst; ++j) {
        std::uint32_t fl =
            (new_entries[j].flags | set_flags) & ~clear_flags;
        hw::FrameId base = new_entries[j].frame;
        if (fl & flag::kZeroFill) {
            memory_.zeroRange(base, dst_fpp);
            zeroed += d.pageSize();
            fl &= ~(flag::kZeroFill | flag::kDirty);
        }
        d.pages()[dst_page + j] = PageEntry{base, fl};
        for (std::uint32_t f = 0; f < dst_fpp; ++f) {
            FrameOwner &owner = frames_[base + f];
            owner.segment = dst;
            owner.page = dst_page + j;
            // "Last user" tracks the last non-system holder so the
            // allocator can skip zero-filling a frame that returns to
            // the same user (paper §3.1); parking a frame in a
            // system-owned pool does not launder it.
            if (d.owner() != kSystemUser)
                owner.lastUser = d.owner();
        }
    }

    if (zeroed) {
        ++stats_.zeroFills;
        stats_.bytesZeroed += zeroed;
    }
    if (bytes_zeroed)
        *bytes_zeroed = zeroed;
    stats_.pagesMigrated += pages;
    bumpSegEpoch(src);
    bumpSegEpoch(dst);
    return ndst;
}

std::uint64_t
Kernel::modifyPageFlagsNow(SegmentId seg, PageIndex page,
                           std::uint64_t pages, std::uint32_t set_flags,
                           std::uint32_t clear_flags)
{
    Segment &s = segmentOrThrow(seg);
    std::uint64_t modified = 0;
    for (std::uint64_t i = 0; i < pages; ++i) {
        PageEntry *e = s.findPage(page + i);
        if (!e)
            continue;
        e->flags = (e->flags | set_flags) & ~clear_flags;
        ++modified;
    }
    bumpSegEpoch(seg);
    return modified;
}

std::vector<PageAttribute>
Kernel::getPageAttributesNow(SegmentId seg, PageIndex page,
                             std::uint64_t pages) const
{
    const Segment &s = segmentOrThrow(seg);
    std::vector<PageAttribute> out;
    out.reserve(pages);
    for (std::uint64_t i = 0; i < pages; ++i) {
        PageAttribute a;
        a.page = page + i;
        if (const PageEntry *e = s.findPage(page + i)) {
            a.present = true;
            a.flags = e->flags;
            a.frame = e->frame;
            a.physAddr = memory_.physAddr(e->frame);
        }
        out.push_back(a);
    }
    return out;
}

// ----------------------------------------------------------------------
// Charged (paper API) operations
// ----------------------------------------------------------------------

sim::Task<SegmentId>
Kernel::createSegment(std::string name, std::uint32_t page_size,
                      std::uint64_t page_limit, UserId owner,
                      SegmentManager *mgr)
{
    co_await sim_->delay(config_.cost.syscall);
    co_return createSegmentNow(std::move(name), page_size, page_limit,
                               owner, mgr);
}

sim::Task<>
Kernel::setSegmentManager(SegmentId seg, SegmentManager *mgr)
{
    co_await sim_->delay(config_.cost.syscall);
    setSegmentManagerNow(seg, mgr);
}

sim::Task<>
Kernel::bindRegion(SegmentId seg, PageIndex at, std::uint64_t pages,
                   SegmentId target, PageIndex target_start,
                   std::uint32_t prot, bool copy_on_write)
{
    co_await sim_->delay(config_.cost.syscall + config_.cost.bindRegion);
    bindRegionNow(seg, at, pages, target, target_start, prot,
                  copy_on_write);
}

sim::Task<>
Kernel::unbindRegion(SegmentId seg, PageIndex at)
{
    co_await sim_->delay(config_.cost.syscall + config_.cost.bindRegion);
    unbindRegionNow(seg, at);
}

Kernel::Migrate
Kernel::migratePages(SegmentId src, SegmentId dst, PageIndex src_page,
                     PageIndex dst_page, std::uint64_t pages,
                     std::uint32_t set_flags, std::uint32_t clear_flags)
{
    ++stats_.migrateCalls;
    Migrate m;
    m.k_ = this;
    m.src_ = src;
    m.dst_ = dst;
    m.srcPage_ = src_page;
    m.dstPage_ = dst_page;
    m.pages_ = pages;
    m.set_ = set_flags;
    m.clear_ = clear_flags;
    m.wait_ = config_.cost.migrateBase +
              static_cast<sim::Duration>(pages) *
                  (config_.cost.migratePerPage + config_.cost.mapInstall);
    return m;
}

bool
Kernel::Migrate::await_ready()
{
    if (wait_ > 0)
        return false;
    move();
    return zeroWait_ <= 0;
}

void
Kernel::Migrate::await_suspend(std::coroutine_handle<> h)
{
    sim::Simulation &s = *k_->sim_;
    if (wait_ <= 0) {
        // Moved in await_ready; only the zero-fill charge is left.
        s.scheduleResume(s.now() + zeroWait_, h);
        return;
    }
    handle_ = h;
    s.schedule(s.now() + wait_, [this] { finish(); });
}

void
Kernel::Migrate::move()
{
    std::uint64_t zeroed = 0;
    moved_ = k_->migratePagesNow(src_, dst_, srcPage_, dstPage_, pages_,
                                 set_, clear_, &zeroed);
    if (zeroed)
        zeroWait_ = k_->zeroTime(zeroed);
}

void
Kernel::Migrate::finish()
{
    try {
        move();
    } catch (...) {
        error_ = std::current_exception();
    }
    sim::Simulation &s = *k_->sim_;
    if (!error_ && zeroWait_ > 0)
        s.scheduleResume(s.now() + zeroWait_, handle_);
    else
        handle_.resume(); // the last use of this awaiter
}

Kernel::FlagEdit
Kernel::modifyPageFlags(SegmentId seg, PageIndex page,
                        std::uint64_t pages, std::uint32_t set_flags,
                        std::uint32_t clear_flags)
{
    ++stats_.modifyFlagCalls;
    return FlagEdit{
        sim_->delay(config_.cost.modifyFlagsBase +
                    static_cast<sim::Duration>(pages) *
                        config_.cost.modifyFlagsPerPage),
        this, seg, page, pages, set_flags, clear_flags};
}

sim::Task<std::vector<PageAttribute>>
Kernel::getPageAttributes(SegmentId seg, PageIndex page,
                          std::uint64_t pages)
{
    ++stats_.getAttrCalls;
    co_await sim_->delay(
        config_.cost.getAttrBase +
        static_cast<sim::Duration>(pages) * config_.cost.getAttrPerPage);
    co_return getPageAttributesNow(seg, page, pages);
}

sim::Task<>
Kernel::destroySegment(SegmentId seg)
{
    co_await sim_->delay(config_.cost.syscall);
    if (seg == kPhysSegment)
        throw KernelError(KernelErrc::Permission,
                          "cannot destroy the physical segment");
    Segment &s = segmentOrThrow(seg);
    if (bindRefs_[seg] > 0) {
        throw KernelError(KernelErrc::PageBusy,
                          "segment is the target of bound regions");
    }
    if (SegmentManager *mgr = s.manager()) {
        // A manager crashing in segmentClosed must not leak the
        // segment's frames: the kernel contains the failure and the
        // sweep below reclaims whatever the manager left behind.
        try {
            co_await notifyClosed(mgr, seg);
        } catch (...) {
            ++stats_.closeFailures;
            mgr->noteCrash();
        }
    }
    sweepToPhysSegment(s);
    for (const auto &b : s.bindings())
        --bindRefs_[b.target];
    segments_[seg].reset();
    bindRefs_.erase(seg);
    ++stats_.segmentsDestroyed;
    // The epoch slot outlives the segment: stale per-CPU chains
    // through the dead id must keep comparing unequal.
    bumpSegEpoch(seg);
}

void
Kernel::sweepToPhysSegment(Segment &seg)
{
    Segment &phys = segmentOrThrow(kPhysSegment);
    const std::uint32_t fpp = framesPerPage(seg);
    for (const auto &[page, entry] : seg.pages()) {
        for (std::uint32_t f = 0; f < fpp; ++f) {
            hw::FrameId fid = entry.frame + f;
            phys.pages()[fid] =
                PageEntry{fid, flag::kReadable | flag::kWritable};
            // Remember the last user so the allocator can decide
            // whether a future grant needs zero-filling.
            frames_[fid].segment = kPhysSegment;
            frames_[fid].page = fid;
        }
    }
    seg.pages().clear();
    bumpSegEpoch(seg.id());
    bumpSegEpoch(kPhysSegment);
}

// ----------------------------------------------------------------------
// Fault path
// ----------------------------------------------------------------------

namespace {

thread_local std::uint64_t tlMarketRounds = 0;
thread_local std::uint64_t tlMarketBids = 0;
thread_local sim::Duration tlMarketMaxStarve = 0;

} // namespace

void
resetThreadMarketCounters()
{
    tlMarketRounds = 0;
    tlMarketBids = 0;
    tlMarketMaxStarve = 0;
}

void
noteThreadMarketRound(std::uint64_t bids)
{
    ++tlMarketRounds;
    tlMarketBids += bids;
}

void
noteThreadMarketStarve(sim::Duration age)
{
    if (age > tlMarketMaxStarve)
        tlMarketMaxStarve = age;
}

std::uint64_t
threadMarketRounds()
{
    return tlMarketRounds;
}

std::uint64_t
threadMarketBids()
{
    return tlMarketBids;
}

sim::Duration
threadMarketMaxStarve()
{
    return tlMarketMaxStarve;
}

Kernel::Resolution
Kernel::walkResolution(Segment &origin, SegmentId seg, PageIndex page,
                       SegmentId *chain, std::uint32_t *chain_len)
{
    Resolution r;
    SegmentId cur_seg = seg;
    PageIndex cur_page = page;
    std::uint32_t visited = 0;
    for (int depth = 0; depth < kMaxBindingDepth; ++depth) {
        Segment &s =
            cur_seg == seg ? origin : segmentOrThrow(cur_seg);
        if (chain) {
            if (visited < kResolveChainMax)
                chain[visited] = cur_seg;
            ++visited;
            if (chain_len) {
                *chain_len = visited <= kResolveChainMax
                                 ? visited
                                 : UINT32_MAX;
            }
        }
        if (!s.inRange(cur_page))
            throw KernelError(KernelErrc::BadPage,
                              "page beyond segment limit");
        if (PageEntry *e = s.findPage(cur_page)) {
            r.present = true;
            r.seg = cur_seg;
            r.page = cur_page;
            r.entry = e;
            return r;
        }
        const Binding *b = s.findBinding(cur_page);
        if (!b) {
            r.present = false;
            r.seg = cur_seg;
            r.page = cur_page;
            return r;
        }
        r.regionProt &= b->prot;
        if (b->copyOnWrite && !r.viaCow) {
            r.viaCow = true;
            r.cowSeg = cur_seg;
            r.cowPage = cur_page;
        }
        cur_seg = b->target;
        cur_page = b->targetStart + (cur_page - b->start);
    }
    throw KernelError(KernelErrc::BadSegment, "binding chain too deep");
}

Kernel::Resolution
Kernel::resolve(SegmentId seg, PageIndex page)
{
    return walkResolution(segmentOrThrow(seg), seg, page);
}

// ----------------------------------------------------------------------
// Shared-kernel sharding: per-CPU caches and fault queues
// ----------------------------------------------------------------------

void
Kernel::configureCpus(unsigned cpus, bool snapshot_epochs)
{
    cpus_.clear();
    cpus_.reserve(cpus);
    for (unsigned i = 0; i < cpus; ++i)
        cpus_.push_back(std::make_unique<CpuState>());
    parkedCpus_.assign((cpus + 63) / 64, 0);
    cpuSnapshotMode_ = snapshot_epochs;
    if (snapshot_epochs)
        publishCpuEpochs();
}

void
Kernel::publishCpuEpochs()
{
    segEpochSnapshot_ = segEpochs_;
}

void
Kernel::throwBadCpu(unsigned cpu)
{
    throw KernelError(KernelErrc::BadPage,
                      "no such cpu " + std::to_string(cpu));
}

const CpuResolution *
Kernel::cpuResolve(unsigned cpu, SegmentId seg, PageIndex page)
{
    CpuState &c = cpuOrThrow(cpu);
    // Live mode validates against the mutable epoch table (strict,
    // immediate invalidation); snapshot mode against the copy last
    // published from single-threaded barrier context, which remote
    // shards can read while the home shard mutates the live table.
    const std::vector<std::uint64_t> &epochs =
        cpuSnapshotMode_ ? segEpochSnapshot_ : segEpochs_;
    if (const CpuResolution *r = c.cache.lookup(seg, page, epochs)) {
        ++c.hits;
        return r;
    }
    ++c.misses;
    return nullptr;
}

void
Kernel::cpuStore(unsigned cpu, const CpuResolution &r)
{
    CpuState &c = cpuOrThrow(cpu);
    if (!r.present || r.chainLen == 0 || r.chainLen > kResolveChainMax)
        return;
    c.cache.store(r);
}

CpuResolution
Kernel::resolveForCpu(SegmentId seg, PageIndex page)
{
    Segment &origin = segmentOrThrow(seg);
    SegmentId chain[kResolveChainMax];
    std::uint32_t len = 0;
    Resolution r = walkResolution(origin, seg, page, chain, &len);
    CpuResolution out;
    out.originSeg = seg;
    out.originPage = page;
    out.present = r.present;
    out.seg = r.seg;
    out.page = r.page;
    out.regionProt = r.regionProt;
    out.viaCow = r.viaCow;
    out.cowSeg = r.cowSeg;
    out.cowPage = r.cowPage;
    if (r.present) {
        out.frame = r.entry->frame;
        out.flags = r.entry->flags;
        if (len >= 1 && len <= kResolveChainMax) {
            // Sum the *live* epochs: in snapshot mode the entry stays
            // conservatively invalid until the next publish catches
            // the snapshot up to this fill.
            std::uint64_t sum = 0;
            for (std::uint32_t i = 0; i < len; ++i) {
                out.chain[i] = chain[i];
                sum += segEpochs_[chain[i]];
            }
            out.chainLen = len;
            out.epochSum = sum;
        }
    }
    return out;
}

std::uint64_t
Kernel::cpuHits(unsigned cpu) const
{
    return cpuOrThrow(cpu).hits;
}

std::uint64_t
Kernel::cpuMisses(unsigned cpu) const
{
    return cpuOrThrow(cpu).misses;
}

void
Kernel::CpuTouch::park(void (*done)(void *), void *arg)
{
    Kernel &k = *k_;
    CpuState &c = k.cpuOrThrow(cpu_);
    done_ = done;
    arg_ = arg;
    c.pending.push_back(this);
    k.parkedCpus_[cpu_ / 64] |= std::uint64_t{1} << (cpu_ % 64);
    ++k.stats_.cpuTouchesQueued;
    if (!k.cpuDraining_) {
        k.cpuDraining_ = true;
        k.scheduleCpuDrain();
    }
}

Kernel::CpuTouch::operator sim::Task<>() &&
{
    return [](CpuTouch t) -> sim::Task<> { co_await t; }(std::move(*this));
}

void
Kernel::CpuTouch::finish()
{
    sim::Simulation &s = *k_->sim_;
    if (done_)
        s.schedule(s.now(), [t = this] { t->done_(t->arg_); });
    else
        s.scheduleResume(s.now(),
                         std::coroutine_handle<>::from_address(arg_));
}

void
Kernel::scheduleCpuDrain()
{
    sim_->schedule(sim_->now(), [k = this] { k->drainCpuTouches(); });
}

void
Kernel::drainCpuTouches()
{
    // The first pass runs behind every touch raised at the instant of
    // the first park, and releases them in CPU-id order: the order
    // same-instant faults reach the coalescing queues (and so the
    // batch composition managers observe) depends only on CPU ids,
    // never on which shard delivered which touch first.
    bool any = false;
    // A pass visits the parked CPUs in ascending id order. A CPU
    // parked during the pass joins it only above the cursor, as it
    // would in a scan of every queue.
    for (std::size_t w = 0; w < parkedCpus_.size(); ++w) {
        std::uint64_t visited = 0;
        while (const std::uint64_t left = parkedCpus_[w] & ~visited) {
            const int b = std::countr_zero(left);
            visited = ~std::uint64_t{0} >> (63 - b);
            parkedCpus_[w] &= ~(std::uint64_t{1} << b);
            any = true;
            // Swap rather than move the queue out, so the CPU keeps
            // its capacity and its next park allocates nothing.
            cpuBatch_.clear();
            cpuBatch_.swap(cpus_[w * 64 + b]->pending);
            for (CpuTouch *t : cpuBatch_) {
                // The attempt runs here; only a fault or a TLB refill
                // needs a coroutine to finish the touch.
                bool done = true;
                sim::Task<> fault;
                try {
                    done = attemptTouch(*t->p_, t->seg_, t->page_, t->a_,
                                        fault);
                } catch (...) {
                    t->error_ = std::current_exception();
                }
                if (done)
                    t->finish();
                else
                    sim_->spawn(runCpuTouch(*t, std::move(fault)));
            }
        }
    }
    if (!any) {
        cpuDraining_ = false;
        return;
    }
    ++stats_.cpuDrains;
    // Another pass catches touches parked later within this same
    // instant (event chains behind the first wave).
    scheduleCpuDrain();
}

sim::Task<>
Kernel::runCpuTouch(CpuTouch &t, sim::Task<> fault)
{
    try {
        if (fault.valid())
            co_await std::move(fault);
        else
            co_await sim_->delay(config_.tlbRefill);
    } catch (...) {
        t.error_ = std::current_exception();
    }
    t.finish();
}

sim::SimMutex &
Kernel::managerLock(SegmentManager *mgr)
{
    auto &slot = mgrLocks_[mgr];
    if (!slot)
        slot = std::make_unique<sim::SimMutex>(*sim_);
    return *slot;
}

template <typename Body>
sim::Task<>
Kernel::crossToManager(SegmentManager *mgr, sim::Duration pre, Body body)
{
    const auto &c = config_.cost;
    if (mgr->mode() == hw::ManagerMode::SameProcess) {
        return ipc::cross(*sim_, nullptr, pre + c.upcall,
                          config_.resumeThroughKernel ? c.kernelResume
                                                      : c.directResume,
                          std::move(body));
    }
    const ipc::CallCost call = ipc::CallCost::fromMachine(config_);
    return ipc::cross(*sim_, &managerLock(mgr), pre + call.send,
                      call.reply + c.trapExit, std::move(body));
}

sim::Task<>
Kernel::enqueueCoalesced(SegmentManager *mgr, const Fault &f)
{
    FaultQueue &q = faultQueues_[mgr];
    sim::Promise<> done(*sim_);
    q.pending.push_back(PendingFault{f, done});
    if (!q.draining) {
        q.draining = true;
        sim_->spawn(drainFaultQueue(mgr));
    }
    co_await done.future();
}

sim::Task<>
Kernel::drainFaultQueue(SegmentManager *mgr)
{
    // Yield once so every fault raised at this instant joins the
    // batch before the dispatch is charged.
    co_await sim_->yield();
    FaultQueue &q = faultQueues_[mgr];
    while (!q.pending.empty()) {
        std::vector<PendingFault> batch = std::move(q.spare);
        batch.swap(q.pending);
        ++stats_.faultBatches;
        stats_.faultsCoalesced += batch.size();
        FaultBatch faults;
        faults.reserve(batch.size());
        for (const PendingFault &p : batch)
            faults.push_back(p.f);
        try {
            co_await deliverBatch(mgr, std::move(faults),
                                  config_.cost.faultDispatch);
            for (PendingFault &p : batch)
                p.done.setValue();
        } catch (...) {
            // The batch fails as a unit; every parked fault rethrows
            // the error from its own delivery context.
            for (PendingFault &p : batch)
                p.done.setError(std::current_exception());
        }
        batch.clear();
        q.spare = std::move(batch);
    }
    q.draining = false;
}

sim::Task<>
Kernel::deliverBatch(SegmentManager *mgr, FaultBatch faults,
                     sim::Duration pre)
{
    mgr->noteCall();
    ++stats_.managerCalls;
    if (!resilience_.enabled) {
        const std::size_t n = faults.size();
        co_await crossToManager(
            mgr, pre, [&] { return invokeHandler(mgr, faults); });
        mgr->noteFaultsHandled(n);
        co_return;
    }

    sim::Duration backoff = resilience_.retryBackoff;
    bool failed_over = false;
    AttemptRace race;
    for (int attempt = 0;; ++attempt) {
        race.reset();
        sim_->spawn(runHandlerAttempt(mgr, faults, attempt ? 0 : pre,
                                      race));
        // The default manager is the trusted base and there is nobody
        // left to fail over to, so its attempt runs without a deadline
        // (a slow disk must not turn an honest fill into
        // "unresponsive"). The deadline is a timer callback: it claims
        // its event sequence number right after the attempt's first
        // charge, and is cancelled once the delivery resumes, so it
        // never outlives the race it points at.
        sim::EventId deadline;
        if (!failed_over) {
            deadline = sim_->timer(
                sim_->now() + resilience_.faultDeadline,
                [r = &race, s = sim_] { r->expire(*s); });
        }
        if (co_await race) {
            ++stats_.faultTimeouts;
            mgr->noteTimeout();
        }
        if (!failed_over)
            sim_->cancel(deadline); // a no-op once it has fired
        dropResolved(faults);
        if (faults.empty())
            co_return;
        if (failed_over)
            break;
        if (attempt < resilience_.maxRedeliveries) {
            stats_.faultRedeliveries += faults.size();
            co_await sim_->delay(backoff);
            backoff *= 2;
            continue;
        }
        if (!resilience_.failover || !defaultMgr_ || defaultMgr_ == mgr)
            break;
        // Failover (§2.3): the kernel takes the segments away from the
        // unresponsive manager, reclaims its clean frames, and hands
        // the segments to the default manager for these faults and
        // all future ones.
        ++stats_.failovers;
        mgr->noteFailover();
        stats_.framesReclaimed += reclaimUnresponsive(mgr);
        for (const Fault &f : faults.view())
            setSegmentManagerNow(f.segment, defaultMgr_);
        mgr = defaultMgr_;
        mgr->noteCall();
        ++stats_.managerCalls;
        failed_over = true;
    }
    throw KernelError(KernelErrc::ManagerUnresponsive,
                      "manager '" + mgr->name() + "' failed to resolve " +
                          std::to_string(faults.size()) +
                          " fault(s), first on segment " +
                          std::to_string(faults.front().segment) +
                          " page " + std::to_string(faults.front().page));
}

sim::Task<>
Kernel::invokeHandler(SegmentManager *mgr, FaultBatch &faults)
{
    // Checked after any manager lock: an earlier attempt, batch or
    // racing process may have resolved a fault, and handling it again
    // would install a second frame onto the same page.
    dropResolved(faults);
    if (faults.empty())
        return {};
    // The default manager is part of the trusted system base (like the
    // kernel itself): injection campaigns target external managers.
    if (inject_ && inject_->enabled() && mgr != defaultMgr_)
        [[unlikely]]
        return invokeHandlerInjected(mgr, faults);
    return handlerFor(mgr, faults);
}

sim::Task<>
Kernel::invokeHandlerInjected(SegmentManager *mgr, FaultBatch &faults)
{
    switch (inject_->managerAction()) {
      case inject::ManagerAction::Stall:
        ++stats_.injectedStalls;
        co_await sim_->delay(inject_->managerStallTime());
        // While the handler was wedged, redelivery or failover may
        // have resolved some of the faults.
        dropResolved(faults);
        if (faults.empty())
            co_return;
        break;
      case inject::ManagerAction::Crash:
        mgr->noteCrash();
        throw inject::InjectedCrash(mgr->name());
      case inject::ManagerAction::Lie:
        ++stats_.injectedLies;
        co_return; // returns "resolved" without doing anything
      case inject::ManagerAction::None:
        break;
    }
    co_await handlerFor(mgr, faults);
}

sim::Task<>
Kernel::handlerFor(SegmentManager *mgr, const FaultBatch &faults)
{
    // Queue-formed batches reach handleFaults even at size one.
    if (config_.faultCoalescing)
        return mgr->handleFaults(*this, faults.view());
    return mgr->handleFault(*this, faults.front());
}

void
Kernel::AttemptRace::expire(sim::Simulation &s)
{
    if (finished || timedOut)
        return;
    timedOut = true;
    cutLoose();
    if (waiting)
        s.scheduleResume(s.now(), waiting);
}

void
Kernel::AttemptRace::finish(sim::Simulation &s)
{
    attempt = nullptr;
    finished = true;
    if (waiting)
        s.scheduleResume(s.now(), waiting);
}

void
Kernel::AttemptRace::cutLoose()
{
    if (attempt) {
        attempt->race = nullptr;
        attempt = nullptr;
    }
}

sim::Task<>
Kernel::runHandlerAttempt(SegmentManager *mgr, FaultBatch faults,
                          sim::Duration pre, AttemptRace &race)
{
    AttemptLink link(race);
    const std::size_t n = faults.size();
    try {
        co_await crossToManager(
            mgr, pre, [&] { return invokeHandler(mgr, faults); });
        mgr->noteFaultsHandled(n);
    } catch (...) {
        // Contain the failure: a crashing handler (injected or real)
        // and a stalled handler erroring after its deadline must not
        // tear down the simulation — surviving manager failure is the
        // property under test.
        ++stats_.managerCrashes;
    }
    // A deadline that expired first cut this attempt loose: its
    // delivery has moved on, and may be gone.
    if (AttemptRace *r = std::exchange(link.race, nullptr))
        r->finish(*sim_);
}

bool
Kernel::faultResolved(const Fault &f)
{
    if (!segmentExists(f.segment))
        return true; // segment gone: nothing left to resolve
    const PageEntry *e = segments_[f.segment]->findPage(f.page);
    if (!e) {
        // A protection fault's page can vanish underneath the fault
        // (failover reclaims the manager's clean frames, and a clock
        // pass may reclaim concurrently). The original fault is then
        // moot: report it resolved so the faulting thread's retry
        // re-resolves the page and raises a fresh missing-page fault.
        return f.type == FaultType::Protection;
    }
    if (f.type == FaultType::MissingPage ||
        f.type == FaultType::CopyOnWrite)
        return true;
    const std::uint32_t need =
        f.access == AccessType::Write ? flag::kWritable : flag::kReadable;
    return (e->flags & need) != 0;
}

void
Kernel::dropResolved(FaultBatch &faults)
{
    faults.eraseIf([this](const Fault &f) { return faultResolved(f); });
}

std::uint64_t
Kernel::reclaimUnresponsive(SegmentManager *mgr)
{
    Segment &phys = segmentOrThrow(kPhysSegment);
    std::uint64_t reclaimed = 0;
    for (const auto &seg : segments_) {
        if (!seg || seg->id() == kPhysSegment || seg->manager() != mgr)
            continue;
        const std::uint32_t fpp = framesPerPage(*seg);
        std::vector<PageIndex> victims;
        for (const auto &[page, entry] : seg->pages()) {
            // Dirty data would be lost and pinned pages were promised
            // to stay; everything else is refetchable, so take it.
            if (!(entry.flags & (flag::kPinned | flag::kDirty)))
                victims.push_back(page);
        }
        for (PageIndex page : victims) {
            const PageEntry entry = *seg->findPage(page);
            for (std::uint32_t i = 0; i < fpp; ++i) {
                hw::FrameId fid = entry.frame + i;
                phys.pages()[fid] =
                    PageEntry{fid, flag::kReadable | flag::kWritable};
                frames_[fid].segment = kPhysSegment;
                frames_[fid].page = fid;
            }
            seg->pages().erase(page);
            reclaimed += fpp;
        }
        if (!victims.empty())
            bumpSegEpoch(seg->id());
    }
    if (reclaimed)
        bumpSegEpoch(kPhysSegment);
    return reclaimed;
}

sim::Task<>
Kernel::notifyClosed(SegmentManager *mgr, SegmentId seg)
{
    mgr->noteCall();
    ++stats_.managerCalls;
    co_await crossToManager(
        mgr, 0, [&] { return mgr->segmentClosed(*this, seg); });
}

Kernel::TouchStep
Kernel::touchStep(Resolution &r, SegmentId seg, PageIndex page,
                  AccessType a)
{
    if (!r.present)
        return TouchStep::Fault;
    const std::uint32_t need =
        a == AccessType::Write ? flag::kWritable : flag::kReadable;
    if (!(r.regionProt & need)) {
        // The mapping itself forbids this access: not a
        // manager-resolvable fault but an access violation.
        throw KernelError(KernelErrc::Permission, "region protection");
    }
    if ((a == AccessType::Write && r.viaCow) || !(r.entry->flags & need))
        return TouchStep::Fault;
    r.entry->flags |= flag::kReferenced;
    if (a == AccessType::Write)
        r.entry->flags |= flag::kDirty;
    // Simple TLB misses are handled by the kernel (§2.1): a refill
    // costs a short in-kernel excursion, no manager involvement.
    if (tlb_ && !tlb_->access(seg, page)) {
        ++stats_.tlbMisses;
        return TouchStep::Refill;
    }
    return TouchStep::Hit;
}

Fault
Kernel::faultFor(const Resolution &r, Process &p, SegmentId seg,
                 PageIndex page, AccessType a) const
{
    Fault f;
    f.access = a;
    f.process = &p;
    f.vaSegment = seg;
    f.vaPage = page;
    if (!r.present) {
        f.type = FaultType::MissingPage;
        f.segment = r.seg;
        f.page = r.page;
    } else if (a == AccessType::Write && r.viaCow &&
               (r.entry->flags & flag::kReadable)) {
        f.type = FaultType::CopyOnWrite;
        f.segment = r.cowSeg;
        f.page = r.cowPage;
        f.cowSource = r.seg;
        f.cowSourcePage = r.page;
    } else {
        // Insufficient page protection (possibly the source of a
        // copy-on-write chain that is itself protected).
        f.type = FaultType::Protection;
        f.segment = r.seg;
        f.page = r.page;
    }
    return f;
}

bool
Kernel::attemptTouch(Process &p, SegmentId seg, PageIndex page,
                     AccessType a, sim::Task<> &fault)
{
    Resolution r = resolve(seg, page);
    switch (touchStep(r, seg, page, a)) {
      case TouchStep::Hit:
        return true;
      case TouchStep::Refill:
        return config_.tlbRefill <= 0;
      case TouchStep::Fault:
        break;
    }
    fault = faultLoop(faultFor(r, p, seg, page, a));
    return false;
}

std::coroutine_handle<>
Kernel::Touch::await_suspend(std::coroutine_handle<> h)
{
    if (fault_.valid())
        return sim::Task<>::Awaiter(fault_).await_suspend(h);
    sim::Simulation &s = *k_->sim_;
    s.scheduleResume(s.now() + k_->config_.tlbRefill, h);
    return std::noop_coroutine();
}

Kernel::Touch::operator sim::Task<>() &&
{
    return [](Touch t) -> sim::Task<> { co_await t; }(std::move(*this));
}

sim::Task<>
Kernel::faultLoop(Fault f)
{
    Process &p = *f.process;
    const SegmentId seg = f.vaSegment;
    const PageIndex page = f.vaPage;
    const AccessType a = f.access;
    for (int delivered = 1;; ++delivered) {
        ++stats_.faults;
        switch (f.type) {
          case FaultType::MissingPage: ++stats_.missingFaults; break;
          case FaultType::Protection: ++stats_.protectionFaults; break;
          case FaultType::CopyOnWrite: ++stats_.cowFaults; break;
        }
        p.noteFault();

        Segment &fseg = segmentOrThrow(f.segment);
        SegmentManager *mgr = fseg.manager();
        if (!mgr) {
            throw KernelError(KernelErrc::NoManager,
                              "segment " + std::to_string(f.segment) +
                                  " (" + fseg.name() + ") has no manager");
        }

        const sim::SimTime fault_start = sim_->now();
        const auto &c = config_.cost;

        if (config_.faultCoalescing) {
            // Each faulting thread pays its own trap entry, then parks
            // on the manager's queue; the drain charges faultDispatch
            // once per batch.
            co_await sim_->delay(c.trapEnter);
            co_await enqueueCoalesced(mgr, f);
        } else {
            // Inline: a batch of one, with no spawn and no yield.
            co_await sim_->delay(c.trapEnter + c.faultDispatch);
            co_await deliverBatch(mgr, FaultBatch(f), 0);
        }

        // Copy-on-write: the kernel performs the copy after the manager
        // has allocated a page (§2.1).
        if (f.type == FaultType::CopyOnWrite) {
            Segment &cow_seg = segmentOrThrow(f.segment);
            PageEntry *dst = cow_seg.findPage(f.page);
            if (dst) {
                const Segment &src_seg = segmentOrThrow(f.cowSource);
                const PageEntry *src = src_seg.findPage(f.cowSourcePage);
                if (src) {
                    const std::uint32_t fpp = framesPerPage(cow_seg);
                    memory_.copyRange(dst->frame, src->frame, fpp);
                    co_await chargeCopy(cow_seg.pageSize());
                    dst->flags |= flag::kReadable | flag::kWritable |
                                  flag::kDirty;
                }
            }
        }

        const sim::Duration fault_latency = sim_->now() - fault_start;
        stats_.faultLatencyTotal += fault_latency;
        if (fault_latency > stats_.faultLatencyMax)
            stats_.faultLatencyMax = fault_latency;

        if (delivered == kMaxFaultRetries)
            break;
        Resolution r = resolve(seg, page);
        switch (touchStep(r, seg, page, a)) {
          case TouchStep::Hit:
            co_return;
          case TouchStep::Refill:
            co_await sim_->delay(config_.tlbRefill);
            co_return;
          case TouchStep::Fault:
            f = faultFor(r, p, seg, page, a);
            break;
        }
    }
    throw KernelError(KernelErrc::FaultLoop,
                      "fault on segment " + std::to_string(seg) +
                          " page " + std::to_string(page) +
                          " unresolved after " +
                          std::to_string(kMaxFaultRetries) + " retries");
}

sim::Task<>
Kernel::touch(Process &p, std::uint64_t vaddr, AccessType a)
{
    SegmentId as = p.addressSpace();
    const Segment &s = segmentOrThrow(as);
    co_await touchSegment(p, as, vaddr / s.pageSize(), a);
}

// ----------------------------------------------------------------------
// Data movement
// ----------------------------------------------------------------------

void
Kernel::writePageData(SegmentId seg, PageIndex page, std::uint64_t offset,
                      std::span<const std::byte> data)
{
    Segment &s = segmentOrThrow(seg);
    PageEntry *e = s.findPage(page);
    if (!e)
        throw KernelError(KernelErrc::PageMissing, "writePageData");
    if (offset + data.size() > s.pageSize())
        throw KernelError(KernelErrc::LimitExceeded, "writePageData");
    const std::uint32_t fs = memory_.frameSize();
    std::uint64_t off = offset;
    std::size_t done = 0;
    while (done < data.size()) {
        hw::FrameId f = e->frame + static_cast<hw::FrameId>(off / fs);
        std::uint64_t in_frame = off % fs;
        std::size_t n = std::min<std::size_t>(fs - in_frame,
                                              data.size() - done);
        std::memcpy(memory_.write(f) + in_frame, data.data() + done, n);
        done += n;
        off += n;
    }
}

void
Kernel::readPageData(SegmentId seg, PageIndex page, std::uint64_t offset,
                     std::span<std::byte> out)
{
    Segment &s = segmentOrThrow(seg);
    PageEntry *e = s.findPage(page);
    if (!e)
        throw KernelError(KernelErrc::PageMissing, "readPageData");
    if (offset + out.size() > s.pageSize())
        throw KernelError(KernelErrc::LimitExceeded, "readPageData");
    const std::uint32_t fs = memory_.frameSize();
    std::uint64_t off = offset;
    std::size_t done = 0;
    while (done < out.size()) {
        hw::FrameId f = e->frame + static_cast<hw::FrameId>(off / fs);
        std::uint64_t in_frame = off % fs;
        std::size_t n = std::min<std::size_t>(fs - in_frame,
                                              out.size() - done);
        const std::byte *src = memory_.peek(f);
        if (src)
            std::memcpy(out.data() + done, src + in_frame, n);
        else
            std::memset(out.data() + done, 0, n);
        done += n;
        off += n;
    }
}

sim::Task<>
Kernel::copyIn(Process &p, std::uint64_t vaddr,
               std::span<const std::byte> data)
{
    SegmentId as = p.addressSpace();
    const std::uint32_t ps = segmentOrThrow(as).pageSize();
    std::size_t done = 0;
    while (done < data.size()) {
        PageIndex page = (vaddr + done) / ps;
        std::uint64_t in_page = (vaddr + done) % ps;
        std::size_t n = std::min<std::size_t>(ps - in_page,
                                              data.size() - done);
        co_await touchSegment(p, as, page, AccessType::Write);
        Resolution r = resolve(as, page);
        if (!r.present)
            throw KernelError(KernelErrc::PageMissing, "copyIn");
        writePageData(r.seg, r.page, in_page,
                      data.subspan(done, n));
        done += n;
    }
    co_await chargeCopy(data.size());
}

sim::Task<>
Kernel::copyOut(Process &p, std::uint64_t vaddr, std::span<std::byte> out)
{
    SegmentId as = p.addressSpace();
    const std::uint32_t ps = segmentOrThrow(as).pageSize();
    std::size_t done = 0;
    while (done < out.size()) {
        PageIndex page = (vaddr + done) / ps;
        std::uint64_t in_page = (vaddr + done) % ps;
        std::size_t n = std::min<std::size_t>(ps - in_page,
                                              out.size() - done);
        co_await touchSegment(p, as, page, AccessType::Read);
        Resolution r = resolve(as, page);
        if (!r.present)
            throw KernelError(KernelErrc::PageMissing, "copyOut");
        readPageData(r.seg, r.page, in_page, out.subspan(done, n));
        done += n;
    }
    co_await chargeCopy(out.size());
}

// ----------------------------------------------------------------------
// Invariants
// ----------------------------------------------------------------------

bool
Kernel::checkFrameInvariant(std::string *why) const
{
    std::vector<std::uint8_t> seen(frames_.size(), 0);
    for (const auto &seg : segments_) {
        if (!seg)
            continue;
        const SegmentId sid = seg->id();
        const std::uint32_t fpp =
            seg->pageSize() / memory_.frameSize();
        for (const auto &[page, entry] : seg->pages()) {
            for (std::uint32_t i = 0; i < fpp; ++i) {
                hw::FrameId f = entry.frame + i;
                if (f >= frames_.size()) {
                    if (why) {
                        std::ostringstream os;
                        os << "segment " << sid << " page " << page
                           << " frame " << f << " out of range";
                        *why = os.str();
                    }
                    return false;
                }
                if (seen[f]) {
                    if (why) {
                        std::ostringstream os;
                        os << "frame " << f << " owned twice (segment "
                           << sid << " page " << page << ")";
                        *why = os.str();
                    }
                    return false;
                }
                seen[f] = 1;
                if (frames_[f].segment != sid ||
                    frames_[f].page != page) {
                    if (why) {
                        std::ostringstream os;
                        os << "frame " << f << " ownership record ("
                           << frames_[f].segment << ","
                           << frames_[f].page
                           << ") disagrees with segment " << sid
                           << " page " << page;
                        *why = os.str();
                    }
                    return false;
                }
            }
        }
    }
    for (hw::FrameId f = 0; f < seen.size(); ++f) {
        if (!seen[f]) {
            if (why) {
                std::ostringstream os;
                os << "frame " << f << " owned by no segment";
                *why = os.str();
            }
            return false;
        }
    }
    return true;
}

} // namespace vpp::kernel
