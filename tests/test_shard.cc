/**
 * @file
 * The sharded engine's contract (sim/shard.h): conservative epoch
 * windows are safe, cross-shard mail merges in canonical order and is
 * destroyed exactly once without a heap allocation per post, and
 * everything — from a hand-built event trace to the full cluster
 * study pushed through the sweep layer — is byte-identical at any
 * worker count.
 */

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bench/sweep.h"
#include "db/cluster.h"
#include "sim/mem_accounting.h"
#include "sim/shard.h"

using namespace vpp;
using sim::ShardedSimulation;
using sim::SimPanic;

namespace {

constexpr sim::Duration kLook = 10;

} // namespace

TEST(Shard, CrossShardMailMergesInCanonicalOrder)
{
    // Three posters race mail to shard 0 at the same timestamp; the
    // merge must order it (when, source shard, source sequence), and
    // behind anything shard 0 already had scheduled there (local
    // events carry older sequence numbers).
    std::vector<std::string> order;
    ShardedSimulation ss(3, kLook, 1);

    ss.shard(0).schedule(kLook, [&order] { order.push_back("local"); });
    ss.shard(1).schedule(0, [&] {
        // Two posts from shard 1: sequence order must survive.
        ss.post(0, kLook, [&order] { order.push_back("s1-first"); });
        ss.post(0, kLook, [&order] { order.push_back("s1-second"); });
    });
    ss.shard(2).schedule(0, [&] {
        ss.post(0, kLook, [&order] { order.push_back("s2"); });
    });
    ss.run();

    std::vector<std::string> expect = {"local", "s1-first",
                                       "s1-second", "s2"};
    EXPECT_EQ(order, expect);
    EXPECT_EQ(ss.crossEvents(), 3u);
}

namespace {

/** One delivered (or planned) piece of mail, as its receiver saw it. */
struct Got
{
    sim::SimTime when;
    unsigned src;
    unsigned seq; ///< source's post count: the engine's own stamp

    bool operator==(const Got &) const = default;
};

constexpr unsigned kSparseShards = 16;
constexpr unsigned kSparseSources = 12; ///< shards 12..15 never act
constexpr unsigned kSparseRounds = 60;
constexpr sim::Duration kRoundGap = 3 * kLook;

struct SparseRun
{
    std::vector<std::vector<Got>> logs; ///< per destination shard
    std::vector<std::vector<Got>> expect;
    std::uint64_t epochs = 0;
    std::uint64_t posted = 0;
};

/**
 * Round r fires at r * kRoundGap on one to three sources (a different
 * set each round); each mails one to three destinations, two pieces
 * each, landing at the exact lookahead boundary or one tick after it
 * so sources tie on timestamps. Shards 12..15 have no events of their
 * own and only ever receive.
 */
SparseRun
runSparseMail(unsigned workers)
{
    SparseRun out;
    out.logs.resize(kSparseShards);
    out.expect.resize(kSparseShards);
    ShardedSimulation ss(kSparseShards, kLook, workers);
    std::vector<unsigned> seq(kSparseShards, 0);
    std::uint64_t x = 0x2545f4914f6cdd1dull; // xorshift64 plan stream
    auto draw = [&x](unsigned n) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return static_cast<unsigned>(x % n);
    };

    for (unsigned r = 0; r < kSparseRounds; ++r) {
        const sim::SimTime at = r * kRoundGap;
        std::vector<bool> chosen(kSparseSources, false);
        const unsigned nsrc = 1 + draw(3);
        for (unsigned k = 0; k < nsrc; ++k) {
            unsigned src = draw(kSparseSources);
            while (chosen[src])
                src = (src + 1) % kSparseSources;
            chosen[src] = true;
            // The plan: (dst, when, seq) in posting order.
            std::vector<std::pair<unsigned, Got>> plan;
            const unsigned ndst = 1 + draw(3);
            for (unsigned d = 0; d < ndst; ++d) {
                unsigned dst = draw(kSparseShards - 1);
                if (dst >= src)
                    ++dst;
                for (int piece = 0; piece < 2; ++piece) {
                    Got g{at + kLook + draw(2), src, seq[src]++};
                    plan.emplace_back(dst, g);
                    out.expect[dst].push_back(g);
                }
            }
            ss.shard(src).schedule(at, [&ss, &out, plan] {
                for (const auto &[dst, g] : plan) {
                    std::vector<Got> *log = &out.logs[dst];
                    ss.post(dst, g.when, [log, g] { log->push_back(g); });
                }
            });
        }
    }
    ss.run();
    out.epochs = ss.epochs();
    out.posted = ss.crossEvents();
    return out;
}

} // namespace

TEST(Shard, SparseMailMergesInCanonicalOrderAtAnyWorkerCount)
{
    SparseRun w1 = runSparseMail(1);
    std::uint64_t planned = 0;
    for (unsigned dst = 0; dst < kSparseShards; ++dst) {
        std::vector<Got> want = w1.expect[dst];
        std::sort(want.begin(), want.end(),
                  [](const Got &a, const Got &b) {
                      if (a.when != b.when)
                          return a.when < b.when;
                      if (a.src != b.src)
                          return a.src < b.src;
                      return a.seq < b.seq;
                  });
        EXPECT_EQ(w1.logs[dst], want) << "shard " << dst;
        planned += want.size();
        if (dst >= kSparseSources) {
            EXPECT_FALSE(want.empty()) << "idle shard " << dst;
        }
    }
    EXPECT_EQ(w1.posted, planned);
    // One window sends a round, the next delivers it.
    EXPECT_EQ(w1.epochs, 2u * kSparseRounds);

    for (unsigned workers : {2u, 8u}) {
        SparseRun w = runSparseMail(workers);
        EXPECT_EQ(w.logs, w1.logs) << "workers " << workers;
        EXPECT_EQ(w.epochs, w1.epochs) << "workers " << workers;
        EXPECT_EQ(w.posted, w1.posted) << "workers " << workers;
    }
}

TEST(Shard, DeliveryAtExactLookaheadBoundary)
{
    // when == src.now() + lookahead is the tightest legal post; it
    // must arrive, and at the destination's own clock.
    ShardedSimulation ss(2, kLook, 1);
    sim::SimTime delivered = 0;
    ss.shard(0).schedule(5, [&] {
        ss.post(1, 5 + kLook,
                [&] { delivered = ss.shard(1).now(); });
    });
    ss.run();
    EXPECT_EQ(delivered, 5 + kLook);
}

TEST(Shard, PostInsideLookaheadWindowPanics)
{
    ShardedSimulation ss(2, kLook, 1);
    ss.shard(0).schedule(5, [&] {
        ss.post(1, 5 + kLook - 1, [] {});
    });
    EXPECT_THROW(ss.run(), SimPanic);
}

TEST(Shard, PostFromOutsideDuringSetupSchedulesDirectly)
{
    ShardedSimulation ss(2, kLook, 1);
    bool ran = false;
    // Before run() there is no source shard and no lookahead rule:
    // setup may seed any shard at any time.
    ss.post(1, 3, [&ran] { ran = true; });
    ss.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(ss.crossEvents(), 0u);
}

TEST(Shard, EpochCountIsDeterministic)
{
    // Windows advance to each global-min + lookahead: events at 0,
    // 12, 35 across two shards give exactly three epochs.
    ShardedSimulation ss(2, kLook, 1);
    ss.shard(0).schedule(0, [] {});
    ss.shard(1).schedule(12, [] {});
    ss.shard(0).schedule(35, [] {});
    ss.run();
    EXPECT_EQ(ss.epochs(), 3u);
}

TEST(Shard, ErrorsRethrowLowestShardFirstAndEngineSurvives)
{
    ShardedSimulation ss(3, kLook, 2);
    ss.shard(2).schedule(0, [] {
        throw std::runtime_error("boom2");
    });
    ss.shard(1).schedule(0, [] {
        throw std::runtime_error("boom1");
    });
    try {
        ss.run();
        FAIL() << "run() should have rethrown";
    } catch (const std::runtime_error &e) {
        // Both shards fail in the same window on different workers;
        // the winner must still be chosen by shard index, not by
        // host timing.
        EXPECT_STREQ(e.what(), "boom1");
    }
    // Failed shards are dead but the engine is still runnable.
    bool ran = false;
    ss.shard(0).schedule(100, [&ran] { ran = true; });
    ss.run();
    EXPECT_TRUE(ran);
}

TEST(Shard, SetupSpawnErrorSurfacesFromShardWithNoEvents)
{
    // A root task that throws before its first suspension leaves its
    // error pending on a shard with nothing scheduled. The run's first
    // window enters every shard, so run() still reports it.
    ShardedSimulation ss(2, kLook, 1);
    ss.shard(0).schedule(0, [] {});
    ss.shard(1).spawn([]() -> sim::Task<> {
        throw std::runtime_error("setup boom");
        co_return;
    }());
    EXPECT_THROW(ss.run(), std::runtime_error);
}

// ----------------------------------------------------------------------
// Mail lifetime and allocation
// ----------------------------------------------------------------------

namespace {

constexpr unsigned kMailShards = 8;
constexpr unsigned kMailWorkers[] = {1, 2, 8};

struct MailCount
{
    std::atomic<int> runs{0};
    std::atomic<int> destroyed{0};
};

/**
 * Mail whose capture is over 16 bytes, so a std::function would put it
 * on the heap. It counts its runs and the destruction of its live
 * copy; a moved-from copy counts nothing, a copy counts again.
 */
struct CountedMail
{
    explicit CountedMail(MailCount *c) : count(c) {}
    CountedMail(const CountedMail &) = default;
    CountedMail(CountedMail &&o) noexcept
        : count(o.count), live(std::exchange(o.live, false))
    {}
    CountedMail &operator=(const CountedMail &) = delete;

    ~CountedMail()
    {
        if (live)
            count->destroyed.fetch_add(1, std::memory_order_relaxed);
    }

    void operator()() const
    {
        count->runs.fetch_add(1, std::memory_order_relaxed);
    }

    MailCount *count;
    std::uint64_t pad[2] = {};
    bool live = true;
};

} // namespace

TEST(Shard, MailIsDestroyedOnceAfterItRuns)
{
    // Every shard mails every other one, so with more than one worker
    // most blocks are allocated on one worker and released on another.
    const int n = kMailShards * (kMailShards - 1);
    for (unsigned workers : kMailWorkers) {
        SCOPED_TRACE(workers);
        MailCount count;
        {
            ShardedSimulation ss(kMailShards, kLook, workers);
            for (unsigned s = 0; s < kMailShards; ++s) {
                ss.shard(s).schedule(0, [&ss, &count, s] {
                    for (unsigned d = 0; d < kMailShards; ++d) {
                        if (d != s)
                            ss.post(d, kLook, CountedMail(&count));
                    }
                });
            }
            ss.run();
            EXPECT_EQ(count.runs.load(), n);
            EXPECT_EQ(count.destroyed.load(), n);
        }
        EXPECT_EQ(count.destroyed.load(), n);
    }
}

TEST(Shard, MailToADeadShardIsDestroyedOnceAtTheMerge)
{
    for (unsigned workers : kMailWorkers) {
        SCOPED_TRACE(workers);
        MailCount count;
        {
            ShardedSimulation ss(kMailShards, kLook, workers);
            ss.shard(3).schedule(0, [] {
                throw std::runtime_error("shard 3 dies");
            });
            for (unsigned s = 0; s < kMailShards; ++s) {
                if (s != 3) {
                    ss.shard(s).schedule(0, [&ss, &count] {
                        ss.post(3, kLook, CountedMail(&count));
                    });
                }
            }
            EXPECT_THROW(ss.run(), std::runtime_error);
            // The merge that found shard 3 dead dropped its mail.
            EXPECT_EQ(count.runs.load(), 0);
            EXPECT_EQ(count.destroyed.load(), 7);
        }
        EXPECT_EQ(count.destroyed.load(), 7);
    }
}

TEST(Shard, QueuedMailIsDestroyedOnceWithTheEngine)
{
    for (unsigned workers : kMailWorkers) {
        SCOPED_TRACE(workers);
        MailCount count;
        {
            ShardedSimulation ss(kMailShards, kLook, workers);
            // Shard 7's error ends the run after the first window. The
            // mail shards 1-6 sent shard 0 in it is merged into shard
            // 0's queue and never runs.
            ss.shard(7).schedule(0, [] {
                throw std::runtime_error("shard 7 stops the run");
            });
            for (unsigned s = 1; s < 7; ++s) {
                ss.shard(s).schedule(0, [&ss, &count] {
                    ss.post(0, kLook, CountedMail(&count));
                });
            }
            EXPECT_THROW(ss.run(), std::runtime_error);
            EXPECT_EQ(count.runs.load(), 0);
            EXPECT_EQ(count.destroyed.load(), 0);
        }
        EXPECT_EQ(count.destroyed.load(), 6);
    }
}

namespace {

constexpr unsigned kWarmHop = 20;
constexpr unsigned kLastHop = 100;

/** What shard 0 saw of the calling thread's allocations. */
struct BounceLog
{
    std::uint64_t before = 0;
    std::uint64_t after = 0;
    std::uint64_t posts = 0; ///< posts from shard 0 in the window
};

/**
 * Mail bouncing between shard 0 and shard `peer` until hop kLastHop; a
 * 32-byte capture. Shard 0 always runs on the calling thread, so the
 * ball paired with shard 1 reads that thread's allocation count there
 * at hops kWarmHop and kLastHop. Only shard 0 writes the log.
 */
struct Bounce
{
    void
    operator()() const
    {
        if (at == 0) {
            if (peer == 1 && hop == kWarmHop)
                log->before = sim::mem::threadAllocations();
            if (peer == 1 && hop == kLastHop)
                log->after = sim::mem::threadAllocations();
            if (hop >= kWarmHop && hop < kLastHop)
                ++log->posts;
        }
        if (hop == kLastHop)
            return;
        const unsigned to = at == 0 ? peer : 0;
        ss->post(to, ss->shard(at).now() + kLook,
                 Bounce{ss, log, peer, to, hop + 1});
    }

    ShardedSimulation *ss;
    BounceLog *log;
    unsigned peer;
    unsigned at;
    unsigned hop;
};

} // namespace

TEST(Shard, WarmPostsAllocateNothing)
{
    if (!sim::mem::hooksActive())
        GTEST_SKIP() << "heap accounting compiled out";
    for (unsigned workers : kMailWorkers) {
        SCOPED_TRACE(workers);
        BounceLog log;
        ShardedSimulation ss(kMailShards, kLook, workers);
        for (unsigned peer = 1; peer < kMailShards; ++peer)
            ss.shard(0).schedule(0, Bounce{&ss, &log, peer, 0, 0});
        ss.run();
        EXPECT_EQ(ss.crossEvents(), (kMailShards - 1) * kLastHop);
        EXPECT_EQ(log.posts, (kMailShards - 1) * (kLastHop - kWarmHop) / 2);
        // Every ball shard 0 receives refills the list its reply just
        // emptied, so with more workers too the pool stays stocked.
        EXPECT_EQ(log.after - log.before, 0u)
            << log.posts << " posts from shard 0 in the window";
    }
}

TEST(Shard, AbsorbChildPeakRaisesThreadPeak)
{
    if (!sim::mem::hooksActive())
        GTEST_SKIP() << "heap accounting compiled out";
    sim::mem::resetThreadPeak();
    std::int64_t before = sim::mem::threadPeakBytes();
    sim::mem::absorbChildPeak(1 << 20);
    EXPECT_GE(sim::mem::threadPeakBytes(),
              sim::mem::threadCurrentBytes() + (1 << 20));
    sim::mem::absorbChildPeak(-5);
    sim::mem::absorbChildPeak(0);
    EXPECT_GE(sim::mem::threadPeakBytes(), before);
}

namespace {

db::ClusterParams
smallCluster(unsigned workers)
{
    db::ClusterParams p;
    p.nodes = 4;
    p.cpusPerNode = 2;
    p.tps = 2000;
    p.durationSec = 0.5;
    p.workers = workers;
    return p;
}

/** Every field of the result, bit-for-bit. */
void
expectSameResult(const db::ClusterResult &a,
                 const db::ClusterResult &b, const char *what)
{
    EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0) << what;
}

} // namespace

TEST(Shard, ClusterStudyByteIdenticalAtAnyWorkerCount)
{
    db::ClusterResult w1 = db::runClusterStudy(smallCluster(1));
    EXPECT_GT(w1.txns, 0u);
    EXPECT_GT(w1.remoteTxns, 0u);
    EXPECT_EQ(w1.crossEvents, 2 * w1.remoteTxns);

    db::ClusterResult w2 = db::runClusterStudy(smallCluster(2));
    db::ClusterResult w8 = db::runClusterStudy(smallCluster(8));
    for (const db::ClusterResult *w : {&w1, &w2, &w8})
        EXPECT_EQ(w->txns, w->arrived);
    expectSameResult(w1, w2, "workers 1 vs 2");
    expectSameResult(w1, w8, "workers 1 vs 8");
}

TEST(ClusterAllocation, SteadyStateTransactionsAllocateNothing)
{
    if (!sim::mem::hooksActive())
        GTEST_SKIP() << "heap accounting compiled out";
    // One seed at two durations: set-up costs the same in both, so the
    // difference is what the extra transactions allocated. A grant, an
    // idle CPU and a page lock cost no global heap once the pools are
    // warm; what is left is the growth of per-node latency lists and
    // the chunks of the CPU queues' deques.
    auto run = [](double sec) {
        db::ClusterParams p = smallCluster(1);
        p.durationSec = sec;
        const std::uint64_t a0 = sim::mem::threadAllocations();
        const db::ClusterResult r = db::runClusterStudy(p);
        return std::pair{sim::mem::threadAllocations() - a0, r.txns};
    };
    (void)run(0.5); // warm the thread's pools
    const auto [shortAllocs, shortTxns] = run(1.0);
    const auto [longAllocs, longTxns] = run(4.0);
    ASSERT_GT(longTxns, shortTxns + 4000);
    const double perTxn = static_cast<double>(longAllocs - shortAllocs) /
                          static_cast<double>(longTxns - shortTxns);
    EXPECT_LT(perTxn, 0.05)
        << longAllocs - shortAllocs << " allocations for "
        << longTxns - shortTxns << " extra transactions";
}

namespace {

/** The bench-layer matrix: rows of cluster runs through a Sweep. */
std::string
sweepJson(unsigned jobs, unsigned shards)
{
    vppbench::Options opt;
    opt.jobs = jobs;
    opt.shards = shards;
    opt.progress = false;

    vppbench::Sweep sweep("shard-matrix", opt);
    for (unsigned nodes : {2u, 4u}) {
        db::ClusterParams p = smallCluster(opt.shards);
        p.nodes = nodes;
        sweep.add("nodes-" + std::to_string(nodes), [p] {
            db::ClusterResult r = db::runClusterStudy(p);
            vppbench::RowResult out;
            out.set("avg_ms", r.avgMs);
            out.set("worst_ms", r.worstMs);
            out.set("txns", static_cast<double>(r.txns));
            out.set("epochs", static_cast<double>(r.epochs));
            out.set("cross_events",
                    static_cast<double>(r.crossEvents));
            return out;
        });
    }
    sweep.run();
    EXPECT_TRUE(sweep.ok());
    return sweep.jsonStr();
}

} // namespace

TEST(Shard, SweepMatrixShardsTimesJobsIsByteIdentical)
{
    std::string golden = sweepJson(1, 1);
    for (unsigned jobs : {1u, 8u}) {
        for (unsigned shards : {1u, 2u, 8u}) {
            EXPECT_EQ(golden, sweepJson(jobs, shards))
                << "jobs=" << jobs << " shards=" << shards;
        }
    }
}
