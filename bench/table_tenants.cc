/**
 * @file
 * Tenant-scaling table: bid tail latency and per-tenant throughput as
 * the number of SPCM clients grows from 10 to 10k, V++ memory market
 * (sharded free lists + batched auction rounds + admission control)
 * vs the conventional global-clock shape (the legacy single-server
 * SPCM: one serialised request at a time, one IPC crossing per bid).
 *
 * Every row runs the same closed-loop workload against a pool that a
 * resident holder has almost exhausted: each tenant issues a fixed
 * number of 16-frame bids on a staggered schedule while a recycler
 * trickles the resident's frames back, so bids compete for a scarce
 * replenishment stream. The market keeps the tail flat because an
 * auction round answers every same-window bid in one batched crossing
 * — unfunded bids cost no simulated time and age out of admission
 * control on a fixed deadline — while the conventional global clock
 * answers a short pool by sweeping resident frames for victims under
 * the single-server lock (SpcmParams::clockScanPerFrame), so every
 * unfunded bid queues behind a full scan and p99 grows with the
 * tenant count.
 *
 * Two storm rows replay the same contention with the fault-injection
 * engine's reclaim-storm stream attached: the conventional row sweeps
 * the whole herd of reclaim callbacks on every storm, the market row
 * caps the fan-out (PressureFaults::stormClients) and batches the
 * shed frames through the same rounds.
 *
 * All numbers are deterministic: byte-identical output at any --jobs
 * and --shards value.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/stack.h"
#include "inject/inject.h"
#include "sim/stats.h"
#include "sim/table.h"
#include "sweep.h"

using namespace vpp;
using sim::TextTable;

namespace {

constexpr int kBidsPerTenant = 6;
constexpr std::uint64_t kAskFrames = 16;
constexpr sim::Duration kBidPeriod = sim::msec(5);
constexpr sim::Duration kJitterWindow = sim::msec(5);
constexpr std::uint64_t kFreeSlack = 32;    ///< frames left unheld
constexpr std::uint64_t kRecycleFrames = 16; ///< per recycler tick
constexpr sim::Duration kRecycleTick = sim::usec(500);
constexpr int kRecycleTicks = 128;
/// Conventional rows: clock-hand victim scan, charged per resident
/// frame when the pool comes up short (see SpcmParams).
constexpr sim::Duration kClockScanPerFrame = sim::nsec(10);

struct TenantState
{
    mgr::ClientId client = 0;
    kernel::SegmentId seg = kernel::kInvalidSegment;
    std::vector<kernel::PageIndex> held; ///< filled slots, grant order
    std::uint64_t nextSlot = 0;
    std::uint64_t funded = 0; ///< frames granted over the run
};

struct World
{
    apps::VppStack *st = nullptr;
    std::vector<TenantState> tenants;
    sim::Distribution bidLatency; ///< usec, completion order
    std::uint64_t bidsIssued = 0;
    std::uint64_t bidsStarved = 0;
};

/// Deterministic per-tenant jitter; no RNG so the schedule is fixed by
/// the tenant index alone.
sim::Duration
tenantJitter(std::uint64_t t)
{
    return static_cast<sim::Duration>((t * 2654435761ull) %
                                      static_cast<std::uint64_t>(
                                          kJitterWindow));
}

sim::Task<>
tenantLoop(World &w, std::size_t idx)
{
    TenantState &ts = w.tenants[idx];
    sim::Simulation &s = w.st->sim;
    sim::Duration jitter = tenantJitter(idx);
    for (int b = 0; b < kBidsPerTenant; ++b) {
        sim::SimTime issue_at =
            static_cast<sim::SimTime>(b) * kBidPeriod + jitter;
        if (issue_at > s.now())
            co_await s.delay(issue_at - s.now());
        std::vector<kernel::PageIndex> slots;
        slots.reserve(kAskFrames);
        for (std::uint64_t i = 0; i < kAskFrames; ++i)
            slots.push_back(ts.nextSlot + i);
        sim::SimTime t0 = s.now();
        ++w.bidsIssued;
        std::uint64_t got = co_await w.st->spcm.requestPages(
            ts.client, ts.seg, slots);
        w.bidLatency.add(sim::toUsec(s.now() - t0));
        if (got == 0)
            ++w.bidsStarved;
        ts.funded += got;
        for (std::uint64_t i = 0; i < got; ++i)
            ts.held.push_back(ts.nextSlot + i);
        ts.nextSlot += got;
    }
}

/// Storm reclaim callback: shed up to @p n of the tenant's held frames.
sim::Task<>
tenantShed(World &w, std::size_t idx, std::uint64_t n)
{
    TenantState &ts = w.tenants[idx];
    if (ts.held.empty())
        co_return;
    std::uint64_t give =
        std::min<std::uint64_t>(n, ts.held.size());
    std::vector<kernel::PageIndex> slots(ts.held.end() - give,
                                         ts.held.end());
    ts.held.resize(ts.held.size() - give);
    co_await w.st->spcm.returnPages(ts.client, ts.seg, slots);
}

/// The resident holder trickles frames back so bids compete for a
/// scarce replenishment stream (identical for both systems).
sim::Task<>
recyclerLoop(World &w, mgr::ClientId resident,
             kernel::SegmentId resident_seg, std::uint64_t held)
{
    sim::Simulation &s = w.st->sim;
    std::uint64_t cursor = held;
    for (int tick = 0; tick < kRecycleTicks && cursor > 0; ++tick) {
        co_await s.delay(kRecycleTick);
        std::uint64_t give =
            std::min<std::uint64_t>(kRecycleFrames, cursor);
        std::vector<kernel::PageIndex> slots;
        slots.reserve(give);
        for (std::uint64_t i = 0; i < give; ++i)
            slots.push_back(cursor - give + i);
        cursor -= give;
        co_await w.st->spcm.returnPages(resident, resident_seg,
                                        slots);
    }
}

inject::Config
stormConfig(std::uint64_t row_seed, std::uint64_t storm_clients)
{
    inject::Config c;
    c.enabled = true;
    c.seed = 0x5eedb0b0ull ^ (row_seed * 0x9e3779b97f4a7c15ull);
    c.pressure.stormProb = 0.20;
    c.pressure.stormFrames = 8;
    c.pressure.stormClients = storm_clients;
    return c;
}

/// Heterogeneous-income split (hetero row only): even-indexed
/// tenants are "rich" — income and deposit comfortably covering a
/// full 16-frame ask — odd ones "poor", whose income barely funds a
/// frame or two, so the market's affordability cap bites.
constexpr double kRichIncome = 0.4;
constexpr double kRichDeposit = 0.25;
constexpr double kPoorIncome = 0.01;
constexpr double kPoorDeposit = 0.0;

vppbench::RowResult
runRow(std::uint64_t tenants, bool market_mode, bool storm,
       std::uint64_t row_seed, bool hetero = false)
{
    hw::MachineConfig machine = hw::decstation5000_200();
    apps::StackOptions opts;
    if (market_mode) {
        mgr::MarketParams mp;
        opts.market = mp;
        opts.spcmParams.shards = 8;
        opts.spcmParams.batchedRounds = true;
        opts.spcmParams.admissionMaxWaiters = 64;
        opts.spcmParams.admissionMaxWait = sim::msec(1);
    } else {
        opts.spcmParams.clockScanPerFrame = kClockScanPerFrame;
    }
    apps::VppStack st(machine, opts);

    World w;
    w.st = &st;

    // A resident holder takes everything but kFreeSlack frames, so
    // the tenants bid into a nearly exhausted pool.
    mgr::ClientId resident = st.spcm.registerClient(
        "resident", 999, 0.0);
    std::uint64_t pool = st.spcm.freeFrames();
    std::uint64_t resident_hold =
        pool > kFreeSlack ? pool - kFreeSlack : 0;
    kernel::SegmentId resident_seg = st.kern.createSegmentNow(
        "resident", machine.pageSize, resident_hold + 1, 999);
    {
        std::vector<kernel::PageIndex> slots;
        slots.reserve(resident_hold);
        for (std::uint64_t i = 0; i < resident_hold; ++i)
            slots.push_back(i);
        st.spcm.grantNow(resident, resident_seg, slots);
    }

    inject::Engine eng(
        stormConfig(row_seed, market_mode ? 8 : 0));
    if (storm)
        st.spcm.setInjector(&eng);

    // Tenants: one SPCM client + one segment each; with the market on
    // each can afford ~25 frames over the grant horizon, comfortably
    // above one 16-frame ask.
    w.tenants.resize(tenants);
    std::uint64_t seg_pages =
        kAskFrames * static_cast<std::uint64_t>(kBidsPerTenant) + 8;
    for (std::uint64_t t = 0; t < tenants; ++t) {
        TenantState &ts = w.tenants[t];
        kernel::UserId uid = 1000 + t;
        std::size_t idx = t;
        bool rich = hetero && (t % 2 == 0);
        double income =
            hetero ? (rich ? kRichIncome : kPoorIncome) : 0.1;
        ts.client = st.spcm.registerClient(
            "tenant" + std::to_string(t), uid, income,
            [&w, idx](std::uint64_t n) {
                return tenantShed(w, idx, n);
            });
        if (market_mode)
            st.spcm.deposit(ts.client,
                            hetero ? (rich ? kRichDeposit
                                           : kPoorDeposit)
                                   : 0.05);
        ts.seg = st.kern.createSegmentNow(
            "tenant" + std::to_string(t), machine.pageSize,
            seg_pages, uid);
    }

    st.sim.spawn(recyclerLoop(w, resident, resident_seg,
                              resident_hold));
    for (std::uint64_t t = 0; t < tenants; ++t)
        st.sim.spawn(tenantLoop(w, t));
    st.sim.run();

    std::string why;
    bool invariant_ok = st.kern.checkFrameInvariant(&why);
    if (!invariant_ok)
        std::fprintf(stderr, "table_tenants: invariant violated: %s\n",
                     why.c_str());

    double sim_sec = sim::toSec(st.sim.now());
    std::uint64_t funded = 0;
    for (const TenantState &ts : w.tenants)
        funded += ts.funded;

    vppbench::RowResult r;
    r.set("tenants", static_cast<double>(tenants));
    r.set("bids", static_cast<double>(w.bidsIssued));
    r.set("bids_starved", static_cast<double>(w.bidsStarved));
    r.set("p50_us", w.bidLatency.percentile(0.50));
    r.set("p99_us", w.bidLatency.percentile(0.99));
    r.set("max_us", w.bidLatency.max());
    r.set("funded_frames", static_cast<double>(funded));
    r.set("frames_per_tenant_sec",
          sim_sec > 0 ? static_cast<double>(funded) /
                            static_cast<double>(tenants) / sim_sec
                      : 0.0);
    r.set("sim_sec", sim_sec);
    r.set("rounds", static_cast<double>(st.spcm.marketRounds()));
    r.set("round_crossings",
          static_cast<double>(st.spcm.roundCrossings()));
    r.set("round_bids", static_cast<double>(st.spcm.roundBids()));
    r.set("bids_waited", static_cast<double>(st.spcm.bidsWaited()));
    r.set("bids_rejected",
          static_cast<double>(st.spcm.bidsRejected()));
    r.set("starve_max_ms", sim::toMsec(st.spcm.maxStarvationSeen()));
    r.set("storms", static_cast<double>(st.spcm.stormsTriggered()));
    r.set("frames_returned",
          static_cast<double>(st.spcm.framesReturned()));
    r.set("free_end", static_cast<double>(st.spcm.freeFrames()));
    r.set("invariant_ok", invariant_ok ? 1.0 : 0.0);
    if (hetero) {
        // Per-class rollup so the table can show that money moves
        // the queue: richer tenants should see fewer unserved bids,
        // less starvation, and more frames funded.
        double rich_unserved = 0, poor_unserved = 0;
        double rich_starve = 0, poor_starve = 0;
        double rich_funded = 0, poor_funded = 0;
        for (std::uint64_t t = 0; t < tenants; ++t) {
            const TenantState &ts = w.tenants[t];
            mgr::TenantStats stats = st.spcm.tenantStats(ts.client);
            bool rich = (t % 2 == 0);
            (rich ? rich_unserved : poor_unserved) +=
                static_cast<double>(stats.bidsUnserved);
            (rich ? rich_starve : poor_starve) = std::max(
                rich ? rich_starve : poor_starve,
                sim::toMsec(stats.maxStarvation));
            (rich ? rich_funded : poor_funded) +=
                static_cast<double>(ts.funded);
        }
        r.set("rich_unserved", rich_unserved);
        r.set("poor_unserved", poor_unserved);
        r.set("rich_starve_ms", rich_starve);
        r.set("poor_starve_ms", poor_starve);
        r.set("rich_funded", rich_funded);
        r.set("poor_funded", poor_funded);
    }
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    vppbench::Options opt =
        vppbench::parseArgs(argc, argv, "table_tenants");

    struct Row
    {
        std::string label;
        std::uint64_t tenants;
        bool market;
        bool storm;
        bool hetero = false;
    };
    // The hetero row is appended LAST so the seed (300 + index) of
    // every earlier row — and therefore its baseline bytes — is
    // unchanged.
    std::vector<Row> rows = {
        {"v++ market 10", 10, true, false},
        {"v++ market 100", 100, true, false},
        {"v++ market 1k", 1000, true, false},
        {"v++ market 10k", 10000, true, false},
        {"conv clock 10", 10, false, false},
        {"conv clock 100", 100, false, false},
        {"conv clock 1k", 1000, false, false},
        {"conv clock 10k", 10000, false, false},
        {"v++ market 200 + storms", 200, true, true},
        {"conv clock 200 + storms", 200, false, true},
        {"v++ market 20 hetero income", 20, true, false, true},
    };

    vppbench::Sweep sweep("table_tenants", opt);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &row = rows[i];
        std::uint64_t seed = 300 + i;
        sweep.add(row.label, [row, seed] {
            return runRow(row.tenants, row.market, row.storm, seed,
                          row.hetero);
        });
    }
    sweep.run();

    std::printf("Tenant scaling: bid tail latency and per-tenant "
                "throughput\n");
    std::printf("%d bids/tenant x %llu frames, staggered over %.0f ms "
                "rounds, pool pre-exhausted\n\n",
                kBidsPerTenant,
                static_cast<unsigned long long>(kAskFrames),
                sim::toMsec(kBidPeriod));

    TextTable t({"Configuration", "tenants", "bids", "p50 us",
                 "p99 us", "fund/ten/s", "rounds", "crossings",
                 "starve ms", "storms"});
    for (std::size_t i = 0; i < rows.size(); ++i) {
        t.addRow({sweep.label(i),
                  std::to_string(static_cast<std::uint64_t>(
                      sweep.get(i, "tenants"))),
                  std::to_string(static_cast<std::uint64_t>(
                      sweep.get(i, "bids"))),
                  TextTable::num(sweep.get(i, "p50_us"), 0),
                  TextTable::num(sweep.get(i, "p99_us"), 0),
                  TextTable::num(
                      sweep.get(i, "frames_per_tenant_sec"), 2),
                  std::to_string(static_cast<std::uint64_t>(
                      sweep.get(i, "rounds"))),
                  std::to_string(static_cast<std::uint64_t>(
                      sweep.get(i, "round_crossings"))),
                  TextTable::num(sweep.get(i, "starve_max_ms"), 2),
                  std::to_string(static_cast<std::uint64_t>(
                      sweep.get(i, "storms")))});
    }
    t.print();

    vppbench::PaperCheck check("table_tenants");

    // Frame conservation holds in every configuration.
    for (std::size_t i = 0; i < rows.size(); ++i) {
        check.that(sweep.label(i) + ": frame invariant holds",
                   sweep.get(i, "invariant_ok") == 1.0);
        check.that(sweep.label(i) + ": all bids answered",
                   sweep.get(i, "bids") ==
                       static_cast<double>(rows[i].tenants) *
                           kBidsPerTenant);
    }

    // The headline: the market's tail stays flat from 10 to 1k
    // tenants (within 2x) while the conventional single-server clock
    // queues every bid and its p99 grows with the tenant count.
    double mkt10 = sweep.get(0, "p99_us");
    double mkt1k = sweep.get(2, "p99_us");
    double conv10 = sweep.get(4, "p99_us");
    double conv1k = sweep.get(6, "p99_us");
    check.that("market p99 at 1k tenants within 2x of 10-tenant",
               mkt1k <= 2.0 * mkt10);
    check.that("conventional p99 degrades >4x from 10 to 1k tenants",
               conv1k > 4.0 * conv10);
    check.that("market p99 beats conventional at 1k tenants",
               mkt1k < conv1k);

    // Batched rounds amortise IPC: far fewer crossings than bids.
    check.that("rounds amortise crossings (1k tenants)",
               sweep.get(2, "round_crossings") <
                   0.5 * sweep.get(2, "bids"));
    check.that("conventional path never runs rounds",
               sweep.get(6, "rounds") == 0.0);

    // Starvation is visible but bounded: unfunded bids age out
    // through admission control instead of deadlocking.
    check.that("market 1k: starvation observed",
               sweep.get(2, "starve_max_ms") > 0.0);
    check.that("market 1k: starved bids were answered",
               sweep.get(2, "bids_starved") > 0.0);

    // Storm rows: storms really fired, and the capped-herd market row
    // keeps a better tail than the full-herd conventional sweep.
    check.that("storm rows triggered storms",
               sweep.get(8, "storms") > 0.0 &&
                   sweep.get(9, "storms") > 0.0);
    check.that("market caps the thundering herd",
               sweep.get(8, "p99_us") < sweep.get(9, "p99_us"));

    // Heterogeneous income: with rich tenants out-bidding poor ones
    // for the same scarce replenishment stream, money must move the
    // queue — richer tenants see fewer unserved bids, no worse
    // starvation, and more frames funded.
    const std::size_t hi = rows.size() - 1;
    check.that("hetero: rich tenants see fewer unserved bids",
               sweep.get(hi, "rich_unserved") <
                   sweep.get(hi, "poor_unserved"));
    check.that("hetero: rich starvation no worse than poor",
               sweep.get(hi, "rich_starve_ms") <=
                   sweep.get(hi, "poor_starve_ms"));
    check.that("hetero: rich tenants funded more frames",
               sweep.get(hi, "rich_funded") >
                   sweep.get(hi, "poor_funded"));

    std::printf("\nShape: batched auction rounds answer every "
                "same-window bid in one IPC crossing,\nso the "
                "market's p99 stays flat as tenants scale 10 -> 1k "
                "while the conventional\nsingle-server clock queues "
                "each bid and its tail grows with the tenant "
                "count.\n");
    return check.exitCode(sweep);
}
