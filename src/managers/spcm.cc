#include "managers/spcm.h"

#include <algorithm>
#include <exception>

namespace vpp::mgr {

using kernel::flag::kReadable;
using kernel::flag::kWritable;
using kernel::flag::kZeroFill;

namespace {

/// Fraction of frames in the shared (protected) range.
constexpr double kProtectedShare = 0.25;
/// Retry cadence when only parked waiters remain (no fresh bids).
constexpr sim::Duration kAdmissionRetry = sim::usec(500);

} // namespace

SystemPageCacheManager::SystemPageCacheManager(
    kernel::Kernel &k, std::optional<MarketParams> market,
    SpcmParams params)
    : kern_(&k), ipcCost_(ipc::CallCost::fromMachine(k.config())),
      serial_(k.simulation()), sp_(params)
{
    if (market)
        market_.emplace(k.simulation(), *market);
    std::uint64_t total = k.memory().numFrames();
    auto shared = static_cast<std::uint64_t>(
        static_cast<double>(total) * kProtectedShare);
    privateFrames_ = total - shared;
    framesPerShard_ =
        std::max<std::uint64_t>(1, privateFrames_ / sp_.shards);
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

std::pair<kernel::PageIndex, kernel::PageIndex>
SystemPageCacheManager::shardRange(std::uint32_t s) const
{
    if (s == sp_.shards)
        return {privateFrames_, kern_->memory().numFrames()};
    const kernel::PageIndex lo =
        std::min<std::uint64_t>(s * framesPerShard_, privateFrames_);
    const kernel::PageIndex hi =
        s + 1 == sp_.shards
            ? privateFrames_
            : std::min<std::uint64_t>(lo + framesPerShard_,
                                      privateFrames_);
    return {lo, hi};
}

std::uint64_t
SystemPageCacheManager::shardFreeFrames(std::uint32_t s) const
{
    const auto [lo, hi] = shardRange(s);
    const kernel::PageTable &phys =
        kern_->segment(kernel::kPhysSegment).pages();
    std::uint64_t n = 0;
    for (auto it = phys.lowerBound(lo); it != phys.end() && (*it).first < hi;
         ++it)
        ++n;
    return n;
}

std::vector<hw::FrameId>
SystemPageCacheManager::pickFrames(ClientId c, std::uint64_t n,
                                   const Constraint &con) const
{
    const kernel::PageTable &phys =
        kern_->segment(kernel::kPhysSegment).pages();
    std::vector<hw::FrameId> out;
    out.reserve(std::min<std::uint64_t>(n, phys.size()));
    // The physical segment is the free list: take matching frames from
    // one of its ranges in frame order.
    auto take = [&](std::pair<kernel::PageIndex, kernel::PageIndex> r) {
        for (auto it = phys.lowerBound(r.first);
             it != phys.end() && out.size() < n; ++it) {
            const auto &[page, entry] = *it;
            if (page >= r.second)
                break;
            if (frameMatches(entry.frame, con))
                out.push_back(entry.frame);
        }
    };
    if (con.kind != Constraint::Kind::None) {
        // Placement constraints (phys range, color) scan every frame.
        take({0, kern_->memory().numFrames()});
        return out;
    }
    // The home range, then the shared range, then the siblings round
    // robin: a range never refuses while frames are free elsewhere
    // (allocation, not placement, is the contract).
    const std::uint32_t home = clientShard(c);
    take(shardRange(home));
    take(shardRange(sp_.shards));
    for (std::uint32_t k = 1; k < sp_.shards; ++k)
        take(shardRange((home + k) % sp_.shards));
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

std::uint64_t
SystemPageCacheManager::installFrames(
    const Client &client, kernel::SegmentId seg,
    std::span<const kernel::PageIndex> slots,
    const std::vector<hw::FrameId> &frames)
{
    std::uint64_t zero_bytes = 0;
    for (std::size_t i = 0; i < frames.size(); ++i) {
        std::uint32_t set = kReadable | kWritable;
        kernel::UserId last = kern_->frameOwner(frames[i]).lastUser;
        if (last != client.account.uid && last != kernel::kSystemUser)
            set |= kZeroFill; // security: crossed a user boundary
        std::uint64_t zeroed = 0;
        kern_->migratePagesNow(kernel::kPhysSegment, seg, frames[i],
                               slots[i], 1, set,
                               kernel::flag::kDirty |
                                   kernel::flag::kReferenced,
                               &zeroed);
        zero_bytes += zeroed;
    }
    return zero_bytes;
}

sim::Task<std::uint64_t>
SystemPageCacheManager::doGrant(const MarketMsg &m, bool &charge_base)
{
    Client &client = clients_.at(m.client);
    const std::uint64_t asked = m.slots.size();
    std::uint64_t want = asked;
    const std::uint32_t page_size = kern_->segment(m.seg).pageSize();

    if (market_) {
        market_->settle(client.account, contended());
        std::uint64_t afford =
            market_->affordableBytes(client.account);
        std::uint64_t held = client.account.bytesHeld;
        std::uint64_t room =
            afford > held ? (afford - held) / page_size : 0;
        want = std::min(want, room);
    }

    std::vector<hw::FrameId> frames =
        pickFrames(m.client, want, m.constraint);
    if (frames.size() < asked)
        pendingDemand_ += asked - frames.size();
    else if (pendingDemand_ > 0)
        --pendingDemand_;

    // Conventional-clock comparator: a short grant sends the global
    // clock hand sweeping every resident frame for victims before
    // giving up.
    if (sp_.clockScanPerFrame > 0 && frames.size() < asked) {
        const std::uint64_t resident =
            kern_->memory().numFrames() - freeFrames();
        co_await kern_->simulation().delay(
            static_cast<sim::Duration>(resident) *
            sp_.clockScanPerFrame);
    }

    // One MigratePages invocation moves the batch; frames may be
    // scattered in the pool, so the functional move is per-frame.
    if (!frames.empty()) {
        ++kern_->stats().migrateCalls;
        // A round pays the migrate base once for all of its bids.
        const sim::Duration base =
            charge_base ? kern_->config().cost.migrateBase : 0;
        charge_base = false;
        co_await kern_->simulation().delay(
            base +
            static_cast<sim::Duration>(frames.size()) *
                (kern_->config().cost.migratePerPage +
                 kern_->config().cost.mapInstall));
        const std::uint64_t zero_bytes =
            installFrames(client, m.seg, m.slots, frames);
        if (zero_bytes)
            co_await kern_->chargeZero(zero_bytes);
        client.account.bytesHeld +=
            frames.size() * static_cast<std::uint64_t>(page_size);
    }

    ++grants_;
    noteBidOutcome(m.client, asked, frames.size());
    co_return frames.size();
}

sim::Task<std::uint64_t>
SystemPageCacheManager::doReturn(const MarketMsg &m)
{
    Client &client = clients_.at(m.client);
    const std::uint32_t page_size = kern_->segment(m.seg).pageSize();
    std::uint64_t returned = 0;
    if (!m.slots.empty()) {
        ++kern_->stats().migrateCalls;
        co_await kern_->simulation().delay(
            kern_->config().cost.migrateBase +
            static_cast<sim::Duration>(m.slots.size()) *
                (kern_->config().cost.migratePerPage +
                 kern_->config().cost.mapInstall));
        for (kernel::PageIndex slot : m.slots) {
            const kernel::PageEntry *e =
                kern_->segment(m.seg).findPage(slot);
            if (!e)
                continue;
            kern_->migratePagesNow(m.seg, kernel::kPhysSegment, slot,
                                   e->frame, 1,
                                   kReadable | kWritable,
                                   kernel::flag::kDirty |
                                       kernel::flag::kReferenced |
                                       kernel::flag::kPinned);
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
    // Thundering-herd cap: sweep only `fan` clients per storm, round
    // robin, so one storm does not serialise the entire tenant set.
    // Uncapped, fan == n and the cursor stays at 0.
    std::size_t fan = (pf.stormClients == 0 || pf.stormClients >= n)
                          ? n
                          : pf.stormClients;
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
SystemPageCacheManager::requestPages(
    ClientId c, kernel::SegmentId dst_seg,
    const std::vector<kernel::PageIndex> &slots, Constraint constraint)
{
    return serve(MarketMsg{true, c, dst_seg, slots, constraint});
}

sim::Task<std::uint64_t>
SystemPageCacheManager::returnPages(
    ClientId c, kernel::SegmentId src_seg,
    const std::vector<kernel::PageIndex> &slots)
{
    return serve(MarketMsg{false, c, src_seg, slots, {}});
}

sim::Task<std::uint64_t>
SystemPageCacheManager::serve(MarketMsg m)
{
    sim::Simulation &s = kern_->simulation();
    std::uint64_t got = 0;
    if (inRound_ && m.client == reclaimTarget_) {
        // A reclaim callback of the running round's storm: parking it
        // for the next round would deadlock this one, so it is served
        // inline, inside the round's crossing.
        co_await serveRound({&m, 1}, {&got, 1});
        co_return got;
    }
    if (sp_.batchedRounds) {
        const std::uint64_t want = m.slots.size();
        RoundEntry e{std::move(m), want, s.now(),
                     sim::Promise<std::uint64_t>(s)};
        sim::Future<std::uint64_t> fut = e.done.future();
        pendingRound_.push_back(std::move(e));
        if (!roundDraining_) {
            roundDraining_ = true;
            s.spawn(drainRounds());
        }
        co_return co_await fut;
    }
    // Without rounds a bid draws its storm before the crossing, outside
    // the lock: the reclaim callbacks re-enter returnPages.
    if (m.isBid && inject_) {
        if (std::uint64_t storm = inject_->reclaimStorm())
            co_await stormSweep(storm);
    }
    co_await ipc::cross(s, &serial_, ipcCost_.send, ipcCost_.reply,
                        [&] { return serveRound({&m, 1}, {&got, 1}); });
    co_return got;
}

sim::Task<>
SystemPageCacheManager::serveRound(std::span<const MarketMsg> round,
                                   std::span<std::uint64_t> out)
{
    for (std::size_t i = 0; i < round.size(); ++i) {
        if (!round[i].isBid)
            out[i] = co_await doReturn(round[i]);
    }
    bool charge_base = true;
    for (std::size_t i = 0; i < round.size(); ++i) {
        if (round[i].isBid)
            out[i] = co_await doGrant(round[i], charge_base);
    }
}

sim::Task<>
SystemPageCacheManager::runRound(std::span<const MarketMsg> round,
                                 std::span<std::uint64_t> out)
{
    inRound_ = true;
    try {
        // One storm draw per round, not per bid: the injected herd
        // pressure scales with auction rounds.
        if (inject_) {
            if (std::uint64_t storm = inject_->reclaimStorm())
                co_await stormSweep(storm);
        }
        co_await serveRound(round, out);
    } catch (...) {
        inRound_ = false;
        throw;
    }
    inRound_ = false;
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
            co_await s.delay(kAdmissionRetry);
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

        // The messages travel in the crossing; a parked bid takes its
        // message back below.
        std::vector<MarketMsg> msgs;
        msgs.reserve(round.size());
        std::uint64_t nbids = 0;
        for (RoundEntry &e : round) {
            nbids += e.msg.isBid ? 1 : 0;
            msgs.push_back(std::move(e.msg));
        }
        ++rounds_;
        roundBids_ += nbids;
        roundOffers_ += round.size() - nbids;
        kernel::noteThreadMarketRound(nbids);

        std::vector<std::uint64_t> grants(round.size(), 0);
        std::exception_ptr err;
        ++roundCrossings_;
        try {
            co_await ipc::cross(s, &serial_, ipcCost_.send,
                                ipcCost_.reply,
                                [&] { return runRound(msgs, grants); });
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
            bool starved = msgs[i].isBid && e.want > 0 && got == 0;
            bool can_wait =
                sp_.admissionMaxWaiters > 0 &&
                sp_.admissionMaxWait > 0 &&
                (now - e.issued) < sp_.admissionMaxWait &&
                waitQueue_.size() < sp_.admissionMaxWaiters;
            if (starved && can_wait) {
                ++bidsWaited_;
                e.msg = std::move(msgs[i]);
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
    installFrames(client, dst_seg, slots, frames);
    client.account.bytesHeld +=
        frames.size() * static_cast<std::uint64_t>(page_size);
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
    MemoryInfo info;
    co_await ipc::cross(
        kern_->simulation(), nullptr, ipcCost_.send, ipcCost_.reply,
        [&] {
            Client &client = clients_.at(c);
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
                info.affordableBytes =
                    info.freeFrames * kern_->config().pageSize;
            }
            return sim::Task<>{};
        });
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
