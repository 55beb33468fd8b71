#include "managers/spcm.h"

#include <algorithm>

namespace vpp::mgr {

using kernel::flag::kReadable;
using kernel::flag::kWritable;
using kernel::flag::kZeroFill;

SystemPageCacheManager::SystemPageCacheManager(
    kernel::Kernel &k, std::optional<MarketParams> market,
    SpcmParams params)
    : kern_(&k), ipcCost_(ipc::CallCost::fromMachine(k.config())),
      serial_(k.simulation()), sp_(params)
{
    if (market)
        market_.emplace(k.simulation(), *market);
    if (sp_.shards > 1) {
        std::uint64_t total = k.memory().numFrames();
        auto shared = static_cast<std::uint64_t>(
            static_cast<double>(total) * sp_.protectedShare);
        privateFrames_ = total > shared ? total - shared : 0;
        framesPerShard_ = std::max<std::uint64_t>(
            1, privateFrames_ / sp_.shards);
        shardFree_.resize(sp_.shards + 1);
    }
    if (sp_.batchedRounds) {
        roundPort_.emplace(k.simulation(), ipcCost_);
        k.simulation().spawn(marketServer());
    }
}

ClientId
SystemPageCacheManager::registerClient(
    std::string name, kernel::UserId uid, double income_rate,
    std::function<sim::Task<>(std::uint64_t)> reclaim)
{
    Client c;
    c.account.name = std::move(name);
    c.account.uid = uid;
    c.account.incomeRate = income_rate;
    c.account.lastSettle = kern_->simulation().now();
    c.reclaim = std::move(reclaim);
    clients_.push_back(std::move(c));
    return static_cast<ClientId>(clients_.size() - 1);
}

std::uint64_t
SystemPageCacheManager::freeFrames() const
{
    return kern_->segment(kernel::kPhysSegment).presentPages();
}

bool
SystemPageCacheManager::contended() const
{
    // The pool is contended when requests have recently gone unmet or
    // little memory remains free.
    return pendingDemand_ > 0 ||
           freeFrames() <
               kern_->memory().numFrames() / 16;
}

bool
SystemPageCacheManager::frameMatches(hw::FrameId f,
                                     const Constraint &c) const
{
    switch (c.kind) {
      case Constraint::Kind::None:
        return true;
      case Constraint::Kind::PhysRange: {
        hw::PhysAddr a = kern_->memory().physAddr(f);
        return a >= c.lo && a < c.hi;
      }
      case Constraint::Kind::Color:
        return f % c.numColors == c.color;
    }
    return true;
}

std::uint32_t
SystemPageCacheManager::homeShard(hw::FrameId f) const
{
    if (!sharded())
        return 0;
    if (f >= privateFrames_)
        return sp_.shards; // shared (protected) pool
    return static_cast<std::uint32_t>(std::min<std::uint64_t>(
        f / framesPerShard_, sp_.shards - 1));
}

void
SystemPageCacheManager::syncShardLists()
{
    if (!sharded())
        return;
    // A grant in flight has frames popped from the lists but not yet
    // migrated out of the physical segment; resync after it lands.
    if (unlinked_ != 0)
        return;
    std::uint64_t listed = 0;
    for (const SlotPool &p : shardFree_)
        listed += p.size();
    if (listed == freeFrames())
        return;
    // The kernel bypassed us (e.g. unilateral reclamation of a crashed
    // manager returned its frames straight to the physical segment):
    // rebuild the lists from the pool, each frame on its home shard.
    for (SlotPool &p : shardFree_)
        p = SlotPool{};
    const auto &phys = kern_->segment(kernel::kPhysSegment);
    for (const auto &[page, entry] : phys.pages())
        shardFree_[homeShard(entry.frame)].insert(entry.frame);
}

void
SystemPageCacheManager::noteFrameFreed(hw::FrameId f)
{
    if (sharded())
        shardFree_[homeShard(f)].insert(f);
}

std::uint64_t
SystemPageCacheManager::shardFreeFrames(std::uint32_t s)
{
    if (!sharded())
        return s == 0 ? freeFrames() : 0;
    syncShardLists();
    return shardFree_.at(s).size();
}

std::vector<hw::FrameId>
SystemPageCacheManager::pickFrames(ClientId c, std::uint64_t n,
                                   const Constraint &con)
{
    if (sharded()) {
        syncShardLists();
        std::vector<hw::FrameId> out;
        if (con.kind == Constraint::Kind::None) {
            // O(1) per frame: drain the client's home shard, then the
            // shared pool, then steal from sibling shards round-robin
            // (a shard must never refuse while free frames exist
            // elsewhere — allocation, not placement, is the contract).
            out.reserve(n);
            SlotPool &own = shardFree_[clientShard(c)];
            SlotPool &shared = shardFree_[sp_.shards];
            while (out.size() < n && !own.empty())
                out.push_back(own.popLowest());
            while (out.size() < n && !shared.empty())
                out.push_back(shared.popLowest());
            for (std::uint32_t k = 1;
                 k < sp_.shards && out.size() < n; ++k) {
                SlotPool &sib =
                    shardFree_[(clientShard(c) + k) % sp_.shards];
                while (out.size() < n && !sib.empty())
                    out.push_back(sib.popLowest());
            }
        } else {
            // Constrained picks (phys range, color) still scan; keep
            // the lists in step.
            out.reserve(n);
            const auto &phys = kern_->segment(kernel::kPhysSegment);
            for (const auto &[page, entry] : phys.pages()) {
                if (out.size() >= n)
                    break;
                if (frameMatches(entry.frame, con))
                    out.push_back(entry.frame);
            }
            for (hw::FrameId f : out)
                shardFree_[homeShard(f)].erase(f);
        }
        unlinked_ += out.size();
        return out;
    }
    std::vector<hw::FrameId> out;
    const auto &phys = kern_->segment(kernel::kPhysSegment);
    out.reserve(std::min<std::uint64_t>(n, phys.pages().size()));
    for (const auto &[page, entry] : phys.pages()) {
        if (out.size() >= n)
            break;
        if (frameMatches(entry.frame, con))
            out.push_back(entry.frame);
    }
    return out;
}

void
SystemPageCacheManager::noteBidOutcome(ClientId c, std::uint64_t want,
                                       std::uint64_t got)
{
    TenantStats &t = clients_.at(c).tenant;
    ++t.bids;
    if (want == 0)
        return;
    sim::SimTime now = kern_->simulation().now();
    if (got == 0) {
        ++t.bidsUnserved;
        if (!t.starving) {
            t.starving = true;
            t.starvingSince = now;
        }
        sim::Duration age = now - t.starvingSince;
        t.maxStarvation = std::max(t.maxStarvation, age);
        maxStarve_ = std::max(maxStarve_, age);
        kernel::noteThreadMarketStarve(age);
    } else {
        t.starving = false;
    }
}

sim::Task<std::uint64_t>
SystemPageCacheManager::doGrant(ClientId c, kernel::SegmentId dst_seg,
                                const std::vector<kernel::PageIndex> &slots,
                                const Constraint &constraint,
                                bool *charge_base)
{
    Client &client = clients_.at(c);
    std::uint64_t want = slots.size();
    const std::uint32_t page_size =
        kern_->segment(dst_seg).pageSize();

    if (market_) {
        market_->settle(client.account, contended());
        std::uint64_t afford =
            market_->affordableBytes(client.account);
        std::uint64_t held = client.account.bytesHeld;
        std::uint64_t room =
            afford > held ? (afford - held) / page_size : 0;
        want = std::min(want, room);
    }

    std::vector<hw::FrameId> frames = pickFrames(c, want, constraint);
    if (frames.size() < slots.size())
        pendingDemand_ += slots.size() - frames.size();
    else if (pendingDemand_ > 0)
        --pendingDemand_;

    // Conventional-policy comparator. A short grant under Clock (the
    // legacy shape) sends the hand sweeping every resident frame for
    // victims before giving up; list-based policies keep an eviction
    // order and pay the scan only for the frames actually missing.
    if (sp_.clockScanPerFrame > 0 && frames.size() < slots.size()) {
        std::uint64_t scanned =
            sp_.scanPolicy == policy::Kind::Clock
                ? kern_->memory().numFrames() - freeFrames()
                : slots.size() - frames.size();
        co_await kern_->simulation().delay(
            static_cast<sim::Duration>(scanned) *
            sp_.clockScanPerFrame);
    }

    // One MigratePages invocation moves the batch; frames may be
    // scattered in the pool, so the functional move is per-frame.
    if (!frames.empty()) {
        ++kern_->stats().migrateCalls;
        // A batched round pays the migrate base once for all of its
        // bids; the legacy path (charge_base == nullptr) pays it per
        // request, as the single-server SPCM always did.
        sim::Duration base = kern_->config().cost.migrateBase;
        if (charge_base) {
            base = *charge_base ? base : 0;
            *charge_base = false;
        }
        co_await kern_->simulation().delay(
            base +
            static_cast<sim::Duration>(frames.size()) *
                (kern_->config().cost.migratePerPage +
                 kern_->config().cost.mapInstall));
        std::uint64_t zero_bytes = 0;
        for (std::size_t i = 0; i < frames.size(); ++i) {
            std::uint32_t set = kReadable | kWritable;
            kernel::UserId last =
                kern_->frameOwner(frames[i]).lastUser;
            if (last != client.account.uid &&
                last != kernel::kSystemUser) {
                set |= kZeroFill; // security: crossed a user boundary
            }
            std::uint64_t zeroed = 0;
            kern_->migratePagesNow(kernel::kPhysSegment, dst_seg,
                                   frames[i], slots[i], 1, set,
                                   kernel::flag::kDirty |
                                       kernel::flag::kReferenced,
                                   &zeroed);
            zero_bytes += zeroed;
        }
        if (sharded())
            unlinked_ -= frames.size();
        if (zero_bytes)
            co_await kern_->chargeZero(zero_bytes);
        client.account.bytesHeld +=
            frames.size() * static_cast<std::uint64_t>(page_size);
    }

    ++grants_;
    framesGranted_ += frames.size();
    noteBidOutcome(c, slots.size(), frames.size());
    co_return frames.size();
}

sim::Task<std::uint64_t>
SystemPageCacheManager::doReturn(ClientId c, kernel::SegmentId src_seg,
                                 const std::vector<kernel::PageIndex> &slots)
{
    Client &client = clients_.at(c);
    const std::uint32_t page_size =
        kern_->segment(src_seg).pageSize();
    std::uint64_t returned = 0;
    if (!slots.empty()) {
        ++kern_->stats().migrateCalls;
        co_await kern_->simulation().delay(
            kern_->config().cost.migrateBase +
            static_cast<sim::Duration>(slots.size()) *
                (kern_->config().cost.migratePerPage +
                 kern_->config().cost.mapInstall));
        for (kernel::PageIndex slot : slots) {
            const kernel::PageEntry *e =
                kern_->segment(src_seg).findPage(slot);
            if (!e)
                continue;
            hw::FrameId f = e->frame;
            kern_->migratePagesNow(src_seg, kernel::kPhysSegment, slot,
                                   f, 1,
                                   kReadable | kWritable,
                                   kernel::flag::kDirty |
                                       kernel::flag::kReferenced |
                                       kernel::flag::kPinned);
            noteFrameFreed(f);
            ++returned;
        }
        std::uint64_t bytes = returned * page_size;
        client.account.bytesHeld -=
            std::min<std::uint64_t>(client.account.bytesHeld, bytes);
    }
    framesReturned_ += returned;
    if (market_)
        market_->settle(client.account, contended());
    co_return returned;
}

sim::Task<>
SystemPageCacheManager::stormSweep(std::uint64_t frames)
{
    ++storms_;
    const inject::PressureFaults &pf = inject_->config().pressure;
    std::size_t n = clients_.size();
    if (n == 0)
        co_return;
    std::size_t fan = (pf.stormClients == 0 || pf.stormClients >= n)
                          ? n
                          : pf.stormClients;
    if (fan == n) {
        for (std::size_t k = 0; k < n; ++k) {
            Client &cl = clients_[k];
            if (cl.reclaim) {
                reclaimTarget_ = static_cast<ClientId>(k);
                co_await cl.reclaim(frames);
                reclaimTarget_ = static_cast<ClientId>(-1);
            }
        }
        co_return;
    }
    // Thundering-herd cap: sweep only `fan` clients per storm, round
    // robin, so one storm does not serialise the entire tenant set.
    for (std::size_t k = 0; k < fan; ++k) {
        std::size_t idx = (stormCursor_ + k) % n;
        Client &cl = clients_[idx];
        if (cl.reclaim) {
            reclaimTarget_ = static_cast<ClientId>(idx);
            co_await cl.reclaim(frames);
            reclaimTarget_ = static_cast<ClientId>(-1);
        }
    }
    stormCursor_ = (stormCursor_ + fan) % n;
}

sim::Task<std::uint64_t>
SystemPageCacheManager::requestPages(ClientId c,
                                     kernel::SegmentId dst_seg,
                                     std::vector<kernel::PageIndex> slots,
                                     Constraint constraint)
{
    if (sp_.batchedRounds) {
        // A reclaim callback running inside the round server must not
        // park a bid for the next round (deadlock); serve it directly.
        // Only the client being reclaimed qualifies: anyone else who
        // resumes while the server is suspended parks like normal.
        if (inRound_ && c == reclaimTarget_)
            co_return co_await doGrant(c, dst_seg, slots, constraint,
                                       nullptr);
        co_return co_await roundRequest(true, c, dst_seg,
                                        std::move(slots), constraint);
    }

    // Injected memory-pressure storm: before serving this request,
    // force clients to shed frames (a burst of the patrol's forced
    // reclamation). Runs outside the serial lock because the reclaim
    // callbacks re-enter through returnPages.
    if (inject_) {
        if (std::uint64_t storm = inject_->reclaimStorm())
            co_await stormSweep(storm);
    }

    co_await kern_->simulation().delay(ipcCost_.send);
    co_await serial_.lock();
    std::uint64_t granted =
        co_await doGrant(c, dst_seg, slots, constraint, nullptr);
    serial_.unlock();
    co_await kern_->simulation().delay(ipcCost_.reply);
    co_return granted;
}

sim::Task<std::uint64_t>
SystemPageCacheManager::returnPages(ClientId c,
                                    kernel::SegmentId src_seg,
                                    std::vector<kernel::PageIndex> slots)
{
    if (sp_.batchedRounds) {
        if (inRound_ && c == reclaimTarget_)
            co_return co_await doReturn(c, src_seg, slots);
        co_return co_await roundRequest(false, c, src_seg,
                                        std::move(slots), {});
    }

    co_await kern_->simulation().delay(ipcCost_.send);
    co_await serial_.lock();
    std::uint64_t returned = co_await doReturn(c, src_seg, slots);
    serial_.unlock();
    co_await kern_->simulation().delay(ipcCost_.reply);
    co_return returned;
}

sim::Task<std::uint64_t>
SystemPageCacheManager::roundRequest(bool is_bid, ClientId c,
                                     kernel::SegmentId seg,
                                     std::vector<kernel::PageIndex> slots,
                                     Constraint constraint)
{
    const std::uint64_t want = slots.size();
    RoundEntry e{MarketMsg{is_bid, c, seg, std::move(slots), constraint},
                 want, kern_->simulation().now(),
                 sim::Promise<std::uint64_t>(kern_->simulation())};
    sim::Future<std::uint64_t> fut = e.done.future();
    pendingRound_.push_back(std::move(e));
    if (!roundDraining_) {
        roundDraining_ = true;
        kern_->simulation().spawn(drainRounds());
    }
    co_return co_await fut;
}

sim::Task<>
SystemPageCacheManager::drainRounds()
{
    sim::Simulation &s = kern_->simulation();
    // Let every same-instant bid and offer join the first round (the
    // kernel's fault-coalescing drain idiom).
    co_await s.yield();
    while (!pendingRound_.empty() || !waitQueue_.empty()) {
        if (pendingRound_.empty()) {
            // Only parked waiters remain: retry them after the
            // admission interval (frames may have been freed by then;
            // their ages grow toward the admission deadline either
            // way, so starvation cannot become a deadlock).
            co_await s.delay(sp_.admissionRetry);
        }
        std::vector<RoundEntry> round;
        round.reserve(waitQueue_.size() + pendingRound_.size());
        // Oldest parked bids go first so the auction serves them
        // before fresh arrivals.
        while (!waitQueue_.empty()) {
            round.push_back(std::move(waitQueue_.front()));
            waitQueue_.pop_front();
        }
        for (RoundEntry &e : pendingRound_)
            round.push_back(std::move(e));
        pendingRound_.clear();
        if (round.empty())
            continue;

        std::vector<MarketMsg> msgs;
        msgs.reserve(round.size());
        std::uint64_t nbids = 0;
        for (const RoundEntry &e : round) {
            msgs.push_back(e.msg);
            nbids += e.msg.isBid ? 1 : 0;
        }
        ++rounds_;
        roundBids_ += nbids;
        roundOffers_ += round.size() - nbids;
        kernel::noteThreadMarketRound(nbids);

        std::vector<std::uint64_t> grants;
        std::exception_ptr err;
        try {
            grants = co_await roundPort_->callBatch(std::move(msgs));
        } catch (...) {
            err = std::current_exception();
        }
        if (err) {
            for (RoundEntry &e : round)
                e.done.setError(err);
            continue;
        }

        sim::SimTime now = s.now();
        for (std::size_t i = 0; i < round.size(); ++i) {
            RoundEntry &e = round[i];
            std::uint64_t got = grants[i];
            bool starved = e.msg.isBid && e.want > 0 && got == 0;
            bool can_wait =
                sp_.admissionMaxWaiters > 0 &&
                sp_.admissionMaxWait > 0 &&
                (now - e.issued) < sp_.admissionMaxWait &&
                waitQueue_.size() < sp_.admissionMaxWaiters;
            if (starved && can_wait) {
                ++bidsWaited_;
                waitQueue_.push_back(std::move(e));
                continue;
            }
            if (starved)
                ++bidsRejected_;
            e.done.setValue(got);
        }
    }
    roundDraining_ = false;
}

sim::Task<>
SystemPageCacheManager::marketServer()
{
    for (;;) {
        auto batch = co_await roundPort_->receiveBatch();
        std::vector<std::uint64_t> out(batch.requests.size(), 0);
        inRound_ = true;
        std::exception_ptr err;
        try {
            // One storm consultation per round, not per bid: the
            // injected herd pressure scales with auction rounds.
            if (inject_) {
                if (std::uint64_t storm = inject_->reclaimStorm())
                    co_await stormSweep(storm);
            }
            // Offers first: frames freed this round fund this round's
            // bids. Both phases run in arrival order.
            for (std::size_t i = 0; i < batch.requests.size(); ++i) {
                const MarketMsg &m = batch.requests[i];
                if (!m.isBid)
                    out[i] = co_await doReturn(m.client, m.seg,
                                               m.slots);
            }
            bool charge_base = true;
            for (std::size_t i = 0; i < batch.requests.size(); ++i) {
                const MarketMsg &m = batch.requests[i];
                if (m.isBid) {
                    out[i] = co_await doGrant(m.client, m.seg, m.slots,
                                              m.constraint,
                                              &charge_base);
                }
            }
        } catch (...) {
            err = std::current_exception();
        }
        inRound_ = false;
        if (err)
            batch.reply.setError(err);
        else
            batch.reply.setValue(std::move(out));
    }
}

std::uint64_t
SystemPageCacheManager::grantNow(
    ClientId c, kernel::SegmentId dst_seg,
    const std::vector<kernel::PageIndex> &slots, Constraint constraint)
{
    Client &client = clients_.at(c);
    if (market_)
        market_->settle(client.account, contended());
    const std::uint32_t page_size =
        kern_->segment(dst_seg).pageSize();
    std::vector<hw::FrameId> frames =
        pickFrames(c, slots.size(), constraint);
    for (std::size_t i = 0; i < frames.size(); ++i) {
        std::uint32_t set = kReadable | kWritable;
        kernel::UserId last =
            kern_->frameOwner(frames[i]).lastUser;
        if (last != client.account.uid &&
            last != kernel::kSystemUser) {
            set |= kZeroFill;
        }
        kern_->migratePagesNow(kernel::kPhysSegment, dst_seg,
                               frames[i], slots[i], 1, set,
                               kernel::flag::kDirty |
                                   kernel::flag::kReferenced);
    }
    if (sharded())
        unlinked_ -= frames.size();
    client.account.bytesHeld +=
        frames.size() * static_cast<std::uint64_t>(page_size);
    framesGranted_ += frames.size();
    return frames.size();
}

void
SystemPageCacheManager::noteIo(ClientId c, std::uint64_t bytes)
{
    if (market_)
        market_->chargeIo(clients_.at(c).account, bytes);
}

sim::Task<SystemPageCacheManager::MemoryInfo>
SystemPageCacheManager::query(ClientId c)
{
    co_await kern_->simulation().delay(ipcCost_.send);
    Client &client = clients_.at(c);
    MemoryInfo info;
    info.freeFrames = freeFrames();
    info.totalFrames = kern_->memory().numFrames();
    info.contended = contended();
    if (market_) {
        market_->settle(client.account, contended());
        info.balance = client.account.balance;
        info.incomeRate = client.account.incomeRate;
        info.affordableBytes =
            market_->affordableBytes(client.account);
    } else {
        info.affordableBytes = info.freeFrames *
                               kern_->config().pageSize;
    }
    co_await kern_->simulation().delay(ipcCost_.reply);
    co_return info;
}

sim::Task<>
SystemPageCacheManager::patrol()
{
    if (!market_)
        co_return;
    const std::uint32_t page_size = kern_->config().pageSize;
    for (std::size_t i = 0; i < clients_.size(); ++i) {
        Client &client = clients_[i];
        market_->settle(client.account, contended());
        if (client.account.balance >= 0)
            continue;
        std::uint64_t afford =
            market_->affordableBytes(client.account);
        if (client.account.bytesHeld <= afford)
            continue;
        std::uint64_t excess_frames =
            (client.account.bytesHeld - afford + page_size - 1) /
            page_size;
        if (client.reclaim && excess_frames > 0)
            co_await client.reclaim(excess_frames);
    }
}

void
SystemPageCacheManager::startPatrol(sim::Duration interval)
{
    patrolRunning_ = true;
    kern_->simulation().spawn(
        [](SystemPageCacheManager *self,
           sim::Duration ival) -> sim::Task<> {
            while (self->patrolRunning_) {
                co_await self->kern_->simulation().delay(ival);
                if (!self->patrolRunning_)
                    break;
                co_await self->patrol();
            }
        }(this, interval));
}

} // namespace vpp::mgr
