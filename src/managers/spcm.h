/**
 * @file
 * The System Page Cache Manager (paper §2.4).
 *
 * A process-level server that owns the global memory pool (the
 * well-known physical segment) and allocates page frames to segment
 * managers on demand. It honours requests for specific physical
 * address ranges or cache colors (physical placement control, page
 * coloring), applies the cross-user zero-fill policy, and optionally
 * runs the memory-market model: clients that exhaust their dram supply
 * are forced to return memory.
 *
 * Every request takes one path. It is a market round, served by
 * serveRound (reclaim offers first, then bids, the migrate base charged
 * once), inside one ipc::cross Send/Reply crossing on the single-server
 * lock. SpcmParams decides only the shape around that path:
 *
 *  - batchedRounds decides how rounds form. Off (the default), each
 *    request is a round of one, served inline. On, same-instant bids
 *    and offers queue into one round, one crossing for all of them,
 *    and admission control parks unfunded bids on a bounded wait queue
 *    and retries them at the head of later rounds until they age out,
 *    so a starved bid is eventually answered with 0 rather than
 *    deadlocking.
 *
 *  - shards decides how the physical segment splits into frame ranges:
 *    one home range per shard plus one shared (protected) range. An
 *    unconstrained pick walks the client's home range, then the shared
 *    range, then the sibling ranges round-robin. The physical segment
 *    is the only free list, so nothing can go stale when the kernel
 *    moves frames behind the SPCM's back.
 */

#ifndef VPP_MANAGERS_SPCM_H
#define VPP_MANAGERS_SPCM_H

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/kernel.h"
#include "inject/inject.h"
#include "ipc/cross.h"
#include "managers/market.h"
#include "sim/sync.h"

namespace vpp::mgr {

using ClientId = std::uint32_t;

/** Placement constraint on a frame request. */
struct Constraint
{
    enum class Kind
    {
        None,
        PhysRange, ///< frames with lo <= physAddr < hi
        Color,     ///< frames whose page color == color (mod numColors)
    };

    Kind kind = Kind::None;
    hw::PhysAddr lo = 0;
    hw::PhysAddr hi = 0;
    std::uint32_t color = 0;
    std::uint32_t numColors = 1;

    static Constraint
    physRange(hw::PhysAddr lo, hw::PhysAddr hi)
    {
        Constraint c;
        c.kind = Kind::PhysRange;
        c.lo = lo;
        c.hi = hi;
        return c;
    }

    static Constraint
    pageColor(std::uint32_t color, std::uint32_t num_colors)
    {
        Constraint c;
        c.kind = Kind::Color;
        c.color = color;
        c.numColors = num_colors;
        return c;
    }
};

/** Scale knobs; the defaults are the paper's single server. */
struct SpcmParams
{
    /// Home frame ranges, one per shard, besides the shared range.
    std::uint32_t shards = 1;
    /// Queue same-instant bids/offers into one round over a single
    /// crossing; off, each request is a round of one.
    bool batchedRounds = false;
    /// Admission control: unfunded bids may park and retry in later
    /// rounds. 0 disables waiting (unfunded bids get 0 immediately).
    std::uint32_t admissionMaxWaiters = 0;
    /// A parked bid older than this is answered 0 instead of retried.
    sim::Duration admissionMaxWait = 0;
    /// Conventional-clock comparator: when a request cannot be fully
    /// satisfied from the free pool, charge this much per *resident*
    /// frame — the global clock hand sweeping memory for victims,
    /// held under the single-server lock. 0 (the default, and the
    /// V++ shape) skips the hunt: the market denies by price in O(1).
    sim::Duration clockScanPerFrame = 0;
};

/** Per-tenant fairness / starvation counters (stderr cost line, tests). */
struct TenantStats
{
    std::uint64_t bids = 0;         ///< requestPages calls observed
    std::uint64_t bidsUnserved = 0; ///< bids answered with 0 frames
    bool starving = false;          ///< in an unserved streak now
    sim::SimTime starvingSince = 0; ///< start of the current streak
    sim::Duration maxStarvation = 0; ///< longest unserved-bid age seen
};

class SystemPageCacheManager
{
  public:
    /**
     * @param market  market parameters; nullopt disables charging and
     *                makes every request affordable.
     * @param params  scale knobs; the default is the paper's single
     *                server.
     */
    SystemPageCacheManager(kernel::Kernel &k,
                           std::optional<MarketParams> market,
                           SpcmParams params = {});

    /**
     * Register a client (a segment manager). @p reclaim is invoked by
     * the market patrol to force the return of @p frames when the
     * client can no longer pay.
     */
    ClientId
    registerClient(std::string name, kernel::UserId uid,
                   double income_rate,
                   std::function<sim::Task<>(std::uint64_t frames)>
                       reclaim = {});

    /**
     * Allocate up to slots.size() frames into the given empty pages of
     * @p dst_seg (one frame per slot, filled in order). Returns the
     * number granted: limited by free frames, the constraint, and —
     * with the market on — what the client can afford. Frames last
     * used by a different user are zero-filled on grant.
     *
     * The request reads @p slots in place, without a copy, until the
     * returned task completes: the caller keeps the list alive and
     * unchanged while it awaits the request. A list built in the
     * awaiting full-expression (`co_await requestPages(c, s, {0, 1})`)
     * lives that long.
     */
    sim::Task<std::uint64_t>
    requestPages(ClientId c, kernel::SegmentId dst_seg,
                 const std::vector<kernel::PageIndex> &slots,
                 Constraint constraint = {});

    /**
     * Return frames from @p slots of @p src_seg to the global pool.
     * @p slots must outlive the returned task, as for requestPages.
     */
    sim::Task<std::uint64_t>
    returnPages(ClientId c, kernel::SegmentId src_seg,
                const std::vector<kernel::PageIndex> &slots);

    /**
     * Zero-simulated-time grant for benchmark setup: same frame
     * selection, zero-fill policy and accounting as requestPages, but
     * no affordability check and no time charged.
     */
    std::uint64_t
    grantNow(ClientId c, kernel::SegmentId dst_seg,
             const std::vector<kernel::PageIndex> &slots,
             Constraint constraint = {});

    /** Record I/O traffic against a client's account. */
    void noteIo(ClientId c, std::uint64_t bytes);

    struct MemoryInfo
    {
        std::uint64_t freeFrames = 0;
        std::uint64_t totalFrames = 0;
        bool contended = false;
        double balance = 0.0;
        double incomeRate = 0.0;
        std::uint64_t affordableBytes = 0;
    };

    /** Paper: "By queries to the SPCM, it can determine the demand". */
    sim::Task<MemoryInfo> query(ClientId c);

    /**
     * Market patrol pass: settle all accounts and force clients with
     * negative balances to shed unaffordable holdings.
     */
    sim::Task<> patrol();

    /** Spawn a periodic patrol every @p interval. */
    void startPatrol(sim::Duration interval);
    void stopPatrol() { patrolRunning_ = false; }

    std::uint64_t freeFrames() const;
    MemoryMarket &market() { return *market_; }
    DramAccount &account(ClientId c) { return clients_.at(c).account; }

    /** Grant a client free drams (administrative top-up). */
    void
    deposit(ClientId c, double drams)
    {
        clients_.at(c).account.balance += drams;
    }

    std::uint64_t grantsServed() const { return grants_; }
    std::uint64_t framesReturned() const { return framesReturned_; }

    /**
     * Attach a fault-injection engine: each bid (each queue-formed
     * round, with rounds) may then draw a reclaim storm that forces
     * registered clients to shed frames (a burst of the patrol's
     * forced reclamation). With PressureFaults::stormClients > 0 each
     * storm sweeps only that many clients, round-robin, instead of
     * the whole herd.
     */
    void setInjector(inject::Engine *e) { inject_ = e; }
    std::uint64_t stormsTriggered() const { return storms_; }

    // ------------------------------------------------------------------
    // Scale observability (sharding, rounds, fairness)
    // ------------------------------------------------------------------

    const SpcmParams &params() const { return sp_; }

    /**
     * Free frames in range @p s: shard s's home range, or the shared
     * range for s == shards.
     */
    std::uint64_t shardFreeFrames(std::uint32_t s) const;

    /** Shard whose home range serves client @p c first. */
    std::uint32_t clientShard(ClientId c) const { return c % sp_.shards; }

    std::uint64_t marketRounds() const { return rounds_; }
    std::uint64_t roundBids() const { return roundBids_; }
    std::uint64_t roundOffers() const { return roundOffers_; }
    std::uint64_t bidsWaited() const { return bidsWaited_; }
    std::uint64_t bidsRejected() const { return bidsRejected_; }

    /** IPC crossings made by queue-formed rounds (one per round). */
    std::uint64_t roundCrossings() const { return roundCrossings_; }

    const TenantStats &
    tenantStats(ClientId c) const
    {
        return clients_.at(c).tenant;
    }

    /** Longest unserved-bid age observed across all tenants. */
    sim::Duration maxStarvationSeen() const { return maxStarve_; }

  private:
    struct Client
    {
        DramAccount account;
        std::function<sim::Task<>(std::uint64_t)> reclaim;
        TenantStats tenant;
    };

    /**
     * One bid or reclaim offer travelling through a market round. Its
     * slots are the caller's list, which outlives the request (see
     * requestPages).
     */
    struct MarketMsg
    {
        bool isBid = true;
        ClientId client = 0;
        kernel::SegmentId seg = kernel::kInvalidSegment;
        std::span<const kernel::PageIndex> slots;
        Constraint constraint;
    };

    /** A message queued for, or parked between, queue-formed rounds. */
    struct RoundEntry
    {
        MarketMsg msg;
        std::uint64_t want = 0;
        sim::SimTime issued = 0;
        sim::Promise<std::uint64_t> done;
    };

    bool contended() const;
    bool frameMatches(hw::FrameId f, const Constraint &c) const;

    /** Frames [first, second) of shard @p s (s == shards: shared). */
    std::pair<kernel::PageIndex, kernel::PageIndex>
    shardRange(std::uint32_t s) const;

    std::vector<hw::FrameId> pickFrames(ClientId c, std::uint64_t n,
                                        const Constraint &con) const;

    /**
     * The one request path for bids and offers. Without rounds: the
     * bid's storm draw, then a round of one inside one crossing. With
     * rounds: queue for the next round and wait for its answer.
     */
    sim::Task<std::uint64_t> serve(MarketMsg m);

    /**
     * Serve one round: offers first (frames freed this round fund this
     * round's bids), then bids, each phase in arrival order. The
     * migrate base is charged once, by the first bid granted frames.
     * Writes each message's frame count to @p out.
     */
    sim::Task<> serveRound(std::span<const MarketMsg> round,
                           std::span<std::uint64_t> out);

    /** A queue-formed round inside its crossing: storm, then serve. */
    sim::Task<> runRound(std::span<const MarketMsg> round,
                         std::span<std::uint64_t> out);

    /**
     * Move @p frames from the physical segment into @p slots of @p seg
     * for @p client, zero-filling each frame last held by another user.
     * Returns the bytes zeroed: doGrant charges them, the zero-time
     * grantNow does not.
     */
    std::uint64_t installFrames(const Client &client,
                                kernel::SegmentId seg,
                                std::span<const kernel::PageIndex> slots,
                                const std::vector<hw::FrameId> &frames);

    sim::Task<std::uint64_t> doGrant(const MarketMsg &m,
                                     bool &charge_base);
    sim::Task<std::uint64_t> doReturn(const MarketMsg &m);

    /** Injected reclaim storm, honouring the stormClients fan-out. */
    sim::Task<> stormSweep(std::uint64_t frames);

    void noteBidOutcome(ClientId c, std::uint64_t want,
                        std::uint64_t got);

    /** Forms and serves queued rounds until none is left (rounds on). */
    sim::Task<> drainRounds();

    kernel::Kernel *kern_;
    ipc::CallCost ipcCost_;
    /// The SPCM is a single server process: one request, or one
    /// round, at a time. (Grant decisions span awaits; without
    /// serialisation two concurrent requests could select the same
    /// frames.)
    sim::SimMutex serial_;
    std::optional<MemoryMarket> market_;
    SpcmParams sp_;
    std::vector<Client> clients_;
    std::uint64_t grants_ = 0;
    std::uint64_t framesReturned_ = 0;
    std::uint64_t pendingDemand_ = 0; ///< unmet frames (contention signal)
    bool patrolRunning_ = false;
    inject::Engine *inject_ = nullptr;
    std::uint64_t storms_ = 0;
    std::size_t stormCursor_ = 0; ///< round-robin herd fan-out

    // Frame ranges: [0, privateFrames_) splits into the shards' home
    // ranges of framesPerShard_ each; the rest is the shared range.
    std::uint64_t privateFrames_ = 0;
    std::uint64_t framesPerShard_ = 0;

    // Queue-formed market rounds.
    std::vector<RoundEntry> pendingRound_; ///< arrivals for next round
    std::deque<RoundEntry> waitQueue_;     ///< parked unfunded bids
    bool roundDraining_ = false;
    /// Set while a queue-formed round runs: reclaim callbacks its
    /// storm triggers re-enter returnPages, which must be served
    /// inline instead of parking an offer for the *next* round (that
    /// would deadlock the current one). Only the client being
    /// reclaimed (reclaimTarget_) is served inline: any other
    /// coroutine that resumes while the round is suspended parks for
    /// the next round, not cut the line.
    bool inRound_ = false;
    ClientId reclaimTarget_ = static_cast<ClientId>(-1);
    std::uint64_t rounds_ = 0;
    std::uint64_t roundCrossings_ = 0;
    std::uint64_t roundBids_ = 0;
    std::uint64_t roundOffers_ = 0;
    std::uint64_t bidsWaited_ = 0;   ///< bids parked at least once
    std::uint64_t bidsRejected_ = 0; ///< starved bids answered 0
    sim::Duration maxStarve_ = 0;
};

} // namespace vpp::mgr

#endif // VPP_MANAGERS_SPCM_H
