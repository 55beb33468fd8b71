/**
 * @file
 * The two sharded workloads, both driven through db's public study
 * functions:
 *
 *  - shared_kernel_hot: db::runSharedKernelStudy at 8 shards x 8 CPUs,
 *    a closed loop of 64 simulated CPUs whose touches mostly hit their
 *    per-CPU resolve caches;
 *  - db_cluster: db::runClusterStudy at 32 nodes x 8 CPUs, an open
 *    Poisson loop at 40k TPS that never enters the kernel.
 *
 * A run is a series of episodes, one study call each, with seeds
 * derived from the run seed. The first kPrefixEpisodes episodes are the
 * deterministic prefix that the simulated metrics and counts come from;
 * host rates and heap peaks come from every episode.
 */

#include <cmath>
#include <string>
#include <vector>

#include "db/cluster.h"
#include "db/shared_kernel.h"
#include "sim/mem_accounting.h"
#include "workloads.h"

namespace e2e {

namespace {

using namespace vpp;

constexpr unsigned kShards = 32;
/// The shared kernel runs on 8 shards, not 32: at 256 CPUs its host
/// working set (about 18 MB) lives in the last-level cache the host
/// shares with other tenants, and its host rate swung by 20-35 % from
/// run to run. At 64 CPUs (about 6 MB) it varies by a few percent.
constexpr unsigned kSharedShards = 8;
constexpr int kCpusPerShard = 8;
constexpr double kClusterTps = 40000.0;
/// Simulated seconds per episode: short enough for a dozen or more
/// episodes per run, long enough to reach steady state.
constexpr double kSharedEpisodeSec = 1.0;
constexpr double kClusterEpisodeSec = 5.0;
/// Episodes in the deterministic prefix.
constexpr int kPrefixEpisodes = 4;
/// Set-up is a warm-up study of this share of an episode: it builds and
/// tears down the whole machine and brings the allocator and caches to
/// steady state before anything is timed.
constexpr double kWarmupShare = 0.2;
constexpr int kSetupRepeats = 9;

struct Episode
{
    double hostSec = 0;
    double heapMb = 0;
};

/**
 * Run @p study once, timing it in host CPU time (inside a db span when
 * @p tracer is set) and measuring its heap peak; the sharded engine
 * folds its worker threads' peaks into this thread's.
 */
template <typename F>
Episode
measure(Tracer *tracer, const char *span, F &&study)
{
    const std::int64_t base = sim::mem::threadCurrentBytes();
    sim::mem::resetThreadPeak();
    if (tracer)
        tracer->begin(Layer::Db, span);
    const std::int64_t t0 = hostCpuNs();
    study();
    Episode e;
    e.hostSec = static_cast<double>(hostCpuNs() - t0) / 1e9;
    if (tracer)
        tracer->end();
    e.heapMb = static_cast<double>(sim::mem::threadPeakBytes() - base) / 1e6;
    return e;
}

/**
 * The episode loop shared by both studies: episodes until the host
 * budget is spent, never fewer than @p prefix. Set-up (a warm-up study,
 * episode -1) runs before the first episode and is sampled again at
 * kSetupRepeats points spread over the run, so one burst of host
 * interference cannot decide setup_s. @p run(seed, episode) runs one
 * study and returns its operation count.
 */
template <typename Run>
void
episodes(const Options &o, const char *span, int prefix, Report &r,
         Run &&run)
{
    std::vector<double> setupS;
    std::vector<double> rates;
    double heapMb = 0;
    int n = 0;
    const std::int64_t begin = hostNowNs();
    const std::int64_t budget = static_cast<std::int64_t>(o.seconds * 1e9);
    for (int i = 0; i < prefix || hostNowNs() - begin < budget; ++i) {
        if (static_cast<int>(setupS.size()) < kSetupRepeats &&
            hostNowNs() - begin >= budget / kSetupRepeats *
                                       static_cast<std::int64_t>(setupS.size())) {
            Episode e = measure(nullptr, span, [&] { run(o.seed, -1); });
            setupS.push_back(e.hostSec);
        }
        double ops = 0;
        Episode e = measure(o.tracer, span, [&] {
            ops = run(episodeSeed(o.seed, static_cast<std::uint64_t>(i)), i);
        });
        r.timedOps += static_cast<std::uint64_t>(ops);
        rates.push_back(ops / e.hostSec);
        heapMb += e.heapMb;
        n = i + 1;
    }
    r.e2e("setup_s", median(setupS), "s");
    r.e2e("ops_per_host_s", quantile(rates, kHostRateQuantile), "1/s");
    // Each episode is a whole machine; its heap peak moves between a few
    // levels with the seed (container growth steps), so the mean over
    // episodes is steadier than their median or maximum.
    r.e2e("peak_heap_mb", heapMb / n, "MB");
}

} // namespace

Report
runSharedKernelHot(const Options &o)
{
    Report r;
    db::SharedKernelParams base;
    base.shards = kSharedShards;
    base.cpusPerShard = kCpusPerShard;
    base.workers = o.workers;
    base.durationSec = o.quick ? 0.05 : kSharedEpisodeSec;

    std::vector<db::SharedKernelResult> pre;
    const int prefix = o.quick ? 2 : kPrefixEpisodes;
    episodes(o, "runSharedKernelStudy", prefix, r,
             [&](std::uint64_t seed, int episode) -> double {
                 db::SharedKernelParams p = base;
                 p.seed = seed;
                 if (episode < 0)
                     p.durationSec *= kWarmupShare;
                 db::SharedKernelResult res = db::runSharedKernelStudy(p);
                 if (episode < 0)
                     return 0;
                 const std::uint64_t want =
                     res.txns * static_cast<std::uint64_t>(p.touchesPerTxn);
                 r.attempted += want;
                 r.completed += res.localHits + res.kernelTrips;
                 r.check(res.touches == want,
                         "touches == txns x touchesPerTxn");
                 r.check(res.touches == res.localHits + res.kernelTrips,
                         "touches == localHits + kernelTrips");
                 r.check(res.crossEvents == 2 * res.crossRpcs,
                         "crossEvents == 2 x crossRpcs");
                 r.check(res.txns > 0, "transactions completed");
                 if (episode < prefix)
                     pre.push_back(res);
                 return static_cast<double>(res.touches);
             });

    // Prefix totals; latency is a transaction-weighted mean.
    db::SharedKernelResult t;
    double simSec = 0;
    double latMs = 0;
    double busy = 0;
    for (const db::SharedKernelResult &e : pre) {
        const double sec = static_cast<double>(e.txns) / e.tpsAchieved;
        simSec += sec;
        latMs += e.avgMs * static_cast<double>(e.txns);
        busy += e.cpuUtilization * sec;
        t.txns += e.txns;
        t.touches += e.touches;
        t.probeHits += e.probeHits;
        t.probeMisses += e.probeMisses;
        t.kernelTrips += e.kernelTrips;
        t.faults += e.faults;
        t.faultBatches += e.faultBatches;
        t.faultsCoalesced += e.faultsCoalesced;
        t.pagesMigrated += e.pagesMigrated;
        t.epochs += e.epochs;
        t.crossEvents += e.crossEvents;
    }
    const double touches = static_cast<double>(t.touches);
    r.e2e("sim_latency_avg_us", latMs / static_cast<double>(t.txns) * 1e3,
          "us");
    r.e2e("sim_ops_per_s", touches / simSec, "1/s");

    r.pinned("sim.epochs", static_cast<double>(t.epochs), "count");
    r.pinned("sim.cross_events", static_cast<double>(t.crossEvents),
             "count");
    r.pinned("core.faults", static_cast<double>(t.faults), "count");
    r.pinned("core.fault_ratio", static_cast<double>(t.faults) / touches,
             "ratio");
    r.pinned("core.pages_migrated", static_cast<double>(t.pagesMigrated),
             "count");
    r.pinned("core.probe_hit_ratio",
             ratio(static_cast<double>(t.probeHits),
                   static_cast<double>(t.probeHits + t.probeMisses)),
             "ratio");
    r.pinned("core.kernel_trips", static_cast<double>(t.kernelTrips),
             "count");
    r.pinned("core.faults_per_batch",
             ratio(static_cast<double>(t.faultsCoalesced),
                   static_cast<double>(t.faultBatches)),
             "ratio");
    // Coalesced delivery makes one manager dispatch per batch.
    r.pinned("ipc.crossings", static_cast<double>(t.faultBatches), "count");
    r.pinned("db.cpu_utilization", busy / simSec, "ratio");
    return r;
}

Report
runDbCluster(const Options &o)
{
    Report r;
    db::ClusterParams base;
    base.nodes = kShards;
    base.cpusPerNode = kCpusPerShard;
    base.tps = kClusterTps;
    base.workers = o.workers;
    base.durationSec = o.quick ? 1.0 : kClusterEpisodeSec;

    std::vector<db::ClusterResult> pre;
    const int prefix = o.quick ? 2 : kPrefixEpisodes;
    episodes(o, "runClusterStudy", prefix, r,
             [&](std::uint64_t seed, int episode) -> double {
                 db::ClusterParams p = base;
                 p.seed = seed;
                 if (episode < 0)
                     p.durationSec *= kWarmupShare;
                 db::ClusterResult res = db::runClusterStudy(p);
                 if (episode < 0)
                     return 0;
                 // The engine drains every in-flight transaction, so each
                 // arrival is a completed transaction; a lost one shows as
                 // achieved throughput below the offered rate.
                 r.attempted += res.txns;
                 r.completed += res.txns;
                 r.check(res.crossEvents == 2 * res.remoteTxns,
                         "crossEvents == 2 x remoteTxns");
                 r.check(std::abs(res.tpsAchieved - p.tps) <= 0.05 * p.tps,
                         "achieved TPS within 5 % of the offered rate");
                 if (episode < prefix)
                     pre.push_back(res);
                 return static_cast<double>(res.txns);
             });

    double txns = 0;
    double remote = 0;
    double simSec = 0;
    double latMs = 0;
    double remoteMs = 0;
    double busy = 0;
    double lockWait = 0;
    std::uint64_t epochs = 0;
    std::uint64_t cross = 0;
    for (const db::ClusterResult &e : pre) {
        const double sec = static_cast<double>(e.txns) / e.tpsAchieved;
        txns += static_cast<double>(e.txns);
        remote += static_cast<double>(e.remoteTxns);
        simSec += sec;
        latMs += e.avgMs * static_cast<double>(e.txns);
        remoteMs += e.remoteAvgMs * static_cast<double>(e.remoteTxns);
        busy += e.cpuUtilization * sec;
        lockWait += e.lockWaitSec;
        epochs += e.epochs;
        cross += e.crossEvents;
    }
    r.e2e("sim_latency_avg_us", latMs / txns * 1e3, "us");
    r.e2e("sim_ops_per_s", txns / simSec, "1/s");

    r.pinned("sim.epochs", static_cast<double>(epochs), "count");
    r.pinned("sim.cross_events", static_cast<double>(cross), "count");
    r.pinned("db.lock_wait_s", lockWait, "s");
    r.pinned("db.remote_avg_ms", remoteMs / remote, "ms");
    r.pinned("db.cpu_utilization", busy / simSec, "ratio");
    return r;
}

} // namespace e2e
