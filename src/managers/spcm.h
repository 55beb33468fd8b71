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
 * At multi-tenant scale the single-server one-request-at-a-time shape
 * stops working: every grant scans the whole physical segment and every
 * bid pays its own Send/Reply crossing. SpcmParams turns on two
 * independently optional mechanisms:
 *
 *  - sharded free lists (shards > 1): the pool is partitioned into
 *    per-shard private free lists plus one shared overflow pool (the
 *    probationary/protected split), making an unconstrained pick O(1)
 *    instead of O(pool). Lists are rebuilt lazily when the kernel
 *    bypasses the SPCM (e.g. unilateral reclamation of a crashed
 *    manager's frames returns them straight to the physical segment).
 *
 *  - batched market rounds (batchedRounds): same-instant bids and
 *    reclaim offers are collected into one auction round carried over
 *    a single ipc::ServerPort::callBatch crossing. The round server
 *    processes offers before bids (frames freed this round fund this
 *    round's bids) and charges the migrate base cost once per round.
 *    Admission control parks unfunded bids on a bounded wait queue and
 *    retries them at the head of subsequent rounds until they age out,
 *    so a starved bid is eventually answered with 0 rather than
 *    deadlocking.
 *
 * Both default off; the default configuration takes the legacy code
 * paths verbatim, so committed bench baselines stay byte-identical.
 */

#ifndef VPP_MANAGERS_SPCM_H
#define VPP_MANAGERS_SPCM_H

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/kernel.h"
#include "inject/inject.h"
#include "ipc/port.h"
#include "managers/market.h"
#include "managers/slot_pool.h"
#include "policy/kind.h"
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

/** Scale knobs; the defaults reproduce the legacy single-server SPCM. */
struct SpcmParams
{
    /// Free-list shards; 1 keeps the legacy whole-pool scan.
    std::uint32_t shards = 1;
    /// Fraction of frames in the shared (protected) pool; the rest is
    /// split into per-shard private lists. Only meaningful with
    /// shards > 1.
    double protectedShare = 0.25;
    /// Collect same-instant bids/offers into one auction round over a
    /// single batched IPC crossing.
    bool batchedRounds = false;
    /// Admission control: unfunded bids may park and retry in later
    /// rounds. 0 disables waiting (unfunded bids get 0 immediately).
    std::uint32_t admissionMaxWaiters = 0;
    /// A parked bid older than this is answered 0 instead of retried.
    sim::Duration admissionMaxWait = 0;
    /// Retry cadence when only parked waiters remain (no fresh bids).
    sim::Duration admissionRetry = sim::usec(500);
    /// Conventional-clock comparator: when a request cannot be fully
    /// satisfied from the free pool, charge this much per *resident*
    /// frame — the global clock hand sweeping memory for victims,
    /// held under the single-server lock. 0 (the default, and the
    /// V++ shape) skips the hunt: the market denies by price in O(1).
    sim::Duration clockScanPerFrame = 0;
    /// Which policy the conventional comparator models. Clock (the
    /// default, legacy shape) hunts: a short grant charges
    /// clockScanPerFrame per *resident* frame under the serial lock.
    /// List-based policies (SLRU/2Q/WSClock) maintain an eviction
    /// order and charge only per *missing* frame. Meaningful only
    /// with clockScanPerFrame > 0; the default is byte-identical to
    /// the pre-policy comparator.
    policy::Kind scanPolicy = policy::Kind::Clock;
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
     * @param params  scale knobs; the default is the legacy shape.
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
     */
    sim::Task<std::uint64_t>
    requestPages(ClientId c, kernel::SegmentId dst_seg,
                 std::vector<kernel::PageIndex> slots,
                 Constraint constraint = {});

    /** Return frames from @p slots of @p src_seg to the global pool. */
    sim::Task<std::uint64_t>
    returnPages(ClientId c, kernel::SegmentId src_seg,
                std::vector<kernel::PageIndex> slots);

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
    bool marketEnabled() const { return market_.has_value(); }
    MemoryMarket &market() { return *market_; }
    DramAccount &account(ClientId c) { return clients_.at(c).account; }

    /** Grant a client free drams (administrative top-up). */
    void
    deposit(ClientId c, double drams)
    {
        clients_.at(c).account.balance += drams;
    }

    std::uint64_t grantsServed() const { return grants_; }
    std::uint64_t framesGranted() const { return framesGranted_; }
    std::uint64_t framesReturned() const { return framesReturned_; }

    /**
     * Attach a fault-injection engine: each requestPages may then
     * trigger a reclaim storm that forces registered clients to shed
     * frames (a burst of the patrol's forced reclamation). With
     * PressureFaults::stormClients > 0 each storm sweeps only that
     * many clients, round-robin, instead of the whole herd.
     */
    void setInjector(inject::Engine *e) { inject_ = e; }
    std::uint64_t stormsTriggered() const { return storms_; }

    // ------------------------------------------------------------------
    // Scale observability (sharding, rounds, fairness)
    // ------------------------------------------------------------------

    const SpcmParams &params() const { return sp_; }
    bool sharded() const { return sp_.shards > 1; }

    /**
     * Free frames homed on shard @p s (s == shards selects the shared
     * protected pool). Synchronises the lists first, so the answer
     * reflects kernel-side bypasses.
     */
    std::uint64_t shardFreeFrames(std::uint32_t s);

    /** Home shard of a frame (shards selects the shared pool). */
    std::uint32_t homeShard(hw::FrameId f) const;

    /** Shard whose private list serves client @p c first. */
    std::uint32_t
    clientShard(ClientId c) const
    {
        return sharded() ? c % sp_.shards : 0;
    }

    std::uint64_t marketRounds() const { return rounds_; }
    std::uint64_t roundBids() const { return roundBids_; }
    std::uint64_t roundOffers() const { return roundOffers_; }
    std::uint64_t bidsWaited() const { return bidsWaited_; }
    std::uint64_t bidsRejected() const { return bidsRejected_; }

    /** IPC crossings consumed by batched rounds (one per round). */
    std::uint64_t
    roundCrossings() const
    {
        return roundPort_ ? roundPort_->calls() : 0;
    }

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

    /** One bid or reclaim offer travelling through a market round. */
    struct MarketMsg
    {
        bool isBid = true;
        ClientId client = 0;
        kernel::SegmentId seg = kernel::kInvalidSegment;
        std::vector<kernel::PageIndex> slots;
        Constraint constraint;
    };

    struct RoundEntry
    {
        MarketMsg msg;
        std::uint64_t want = 0;
        sim::SimTime issued = 0;
        sim::Promise<std::uint64_t> done;
    };

    bool contended() const;
    bool frameMatches(hw::FrameId f, const Constraint &c) const;
    std::vector<hw::FrameId> pickFrames(ClientId c, std::uint64_t n,
                                        const Constraint &con);

    /** Rebuild the shard lists iff the kernel bypassed us. */
    void syncShardLists();
    void noteFrameFreed(hw::FrameId f);

    /** Grant/return bodies shared by the legacy and round paths. */
    sim::Task<std::uint64_t>
    doGrant(ClientId c, kernel::SegmentId dst_seg,
            const std::vector<kernel::PageIndex> &slots,
            const Constraint &constraint, bool *charge_base);
    sim::Task<std::uint64_t>
    doReturn(ClientId c, kernel::SegmentId src_seg,
             const std::vector<kernel::PageIndex> &slots);

    /** Injected reclaim storm, honouring the stormClients fan-out. */
    sim::Task<> stormSweep(std::uint64_t frames);

    void noteBidOutcome(ClientId c, std::uint64_t want,
                        std::uint64_t got);

    /** Round machinery (batchedRounds). */
    sim::Task<std::uint64_t>
    roundRequest(bool is_bid, ClientId c, kernel::SegmentId seg,
                 std::vector<kernel::PageIndex> slots,
                 Constraint constraint);
    sim::Task<> drainRounds();
    sim::Task<> marketServer();

    kernel::Kernel *kern_;
    ipc::CallCost ipcCost_;
    /// The SPCM is a single server process: one request at a time.
    /// (Grant decisions span awaits; without serialisation two
    /// concurrent requests could select the same frames.)
    sim::SimMutex serial_;
    std::optional<MemoryMarket> market_;
    SpcmParams sp_;
    std::vector<Client> clients_;
    std::uint64_t grants_ = 0;
    std::uint64_t framesGranted_ = 0;
    std::uint64_t framesReturned_ = 0;
    std::uint64_t pendingDemand_ = 0; ///< unmet frames (contention signal)
    bool patrolRunning_ = false;
    inject::Engine *inject_ = nullptr;
    std::uint64_t storms_ = 0;
    std::size_t stormCursor_ = 0; ///< round-robin herd fan-out

    // Sharded free lists: [0, shards) private, [shards] shared pool.
    std::vector<SlotPool> shardFree_;
    std::uint64_t privateFrames_ = 0;  ///< frames below this are private
    std::uint64_t framesPerShard_ = 0;
    /// Frames popped from the lists by an in-flight grant but not yet
    /// migrated out of the physical segment; syncShardLists() must not
    /// mistake them for a kernel-side bypass.
    std::uint64_t unlinked_ = 0;

    // Batched market rounds.
    std::optional<ipc::ServerPort<MarketMsg, std::uint64_t>> roundPort_;
    std::vector<RoundEntry> pendingRound_; ///< arrivals for next round
    std::deque<RoundEntry> waitQueue_;     ///< parked unfunded bids
    bool roundDraining_ = false;
    /// Set while the round server executes a round: reclaim callbacks
    /// it triggers (storms, patrol) re-enter returnPages, which must
    /// take the direct path instead of parking an offer for the *next*
    /// round (that would deadlock the current one). The direct path is
    /// gated to the client being reclaimed (reclaimTarget_): any other
    /// coroutine that resumes while the round server is suspended must
    /// park for the next round, not cut the line.
    bool inRound_ = false;
    ClientId reclaimTarget_ = static_cast<ClientId>(-1);
    std::uint64_t rounds_ = 0;
    std::uint64_t roundBids_ = 0;
    std::uint64_t roundOffers_ = 0;
    std::uint64_t bidsWaited_ = 0;   ///< bids parked at least once
    std::uint64_t bidsRejected_ = 0; ///< starved bids answered 0
    sim::Duration maxStarve_ = 0;
};

} // namespace vpp::mgr

#endif // VPP_MANAGERS_SPCM_H
