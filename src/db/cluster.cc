#include "db/cluster.h"

#include <coroutine>
#include <cstddef>
#include <memory>
#include <vector>

#include "db/lock.h"
#include "sim/random.h"
#include "sim/resource.h"
#include "sim/shard.h"
#include "sim/simulation.h"
#include "sim/stats.h"

namespace vpp::db {

namespace {

struct Cluster;
struct Node;

/**
 * A remote branch's round trip, awaited by the home transaction in its
 * own frame. The request mail carries a pointer to this awaiter to the
 * remote node, which serves the branch; the reply mail carries the
 * same pointer home and resumes the transaction with one event. The
 * home shard writes the awaiter before it posts the request, and the
 * remote shard reads it only after the epoch barrier that delivers
 * the request, while the home transaction stays suspended.
 */
struct RemoteCall
{
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}

    Node *home;
    Node *remote;
    std::coroutine_handle<> handle;
};

/**
 * One branch partition: a full database node living on its own
 * logical shard. All of its state — processors, locks, RNG stream,
 * response distributions — is touched only by code executing on its
 * shard, which is what lets shards run on parallel host threads with
 * no locking.
 */
struct Node
{
    Node(Cluster &c, unsigned nodeId);

    sim::Duration instr(double minstr) const;

    sim::Task<> arrivals();
    sim::Task<> localTxn(sim::SimTime arrival);
    sim::Task<> remoteTxn(sim::SimTime arrival);
    sim::Task<> serveRemote(RemoteCall *call);

    Cluster &cluster;
    unsigned id;
    sim::Simulation &sim;
    sim::CpuPool cpus;
    HierarchicalLockManager locks;
    sim::Random rng;
    sim::Distribution resp;      ///< every txn homed here (ms)
    sim::SampleStats remoteResp; ///< the remote-branch subset (ms)
    std::uint64_t arrived = 0;
};

struct Cluster
{
    explicit Cluster(const ClusterParams &p)
        : params(p),
          engine(p.nodes, p.netLatency, p.workers)
    {
        nodes.reserve(p.nodes);
        for (unsigned i = 0; i < p.nodes; ++i)
            nodes.push_back(std::make_unique<Node>(*this, i));
    }

    ClusterParams params;
    sim::ShardedSimulation engine;
    std::vector<std::unique_ptr<Node>> nodes;
};

Node::Node(Cluster &c, unsigned nodeId)
    : cluster(c), id(nodeId), sim(c.engine.shard(nodeId)),
      cpus(sim, c.params.cpusPerNode),
      locks(sim, c.params.relations),
      // Independent per-node streams: splitmix64 scrambles the node
      // id so neighbouring nodes do not correlate.
      rng(c.params.seed ^
          (0x9e3779b97f4a7c15ull * (std::uint64_t{nodeId} + 1)))
{}

sim::Duration
Node::instr(double minstr) const
{
    return static_cast<sim::Duration>(minstr * 1e9 /
                                      cluster.params.mips);
}

sim::Task<>
Node::arrivals()
{
    const ClusterParams &p = cluster.params;
    const sim::SimTime end = sim::sec(p.durationSec);
    const double meanNs = 1e9 * p.nodes / p.tps;
    while (sim.now() < end) {
        co_await sim.delay(
            static_cast<sim::Duration>(rng.exponential(meanNs)));
        ++arrived;
        sim::SimTime t = sim.now();
        if (p.nodes > 1 && rng.uniform() < p.remoteFraction)
            sim.spawn(remoteTxn(t));
        else
            sim.spawn(localTxn(t));
    }
}

sim::Task<>
Node::localTxn(sim::SimTime arrival)
{
    const ClusterParams &p = cluster.params;
    int rel = static_cast<int>(rng.below(p.relations));
    std::uint64_t page = rng.below(p.pagesPerRelation);

    co_await locks.lockRelation(rel, LockMode::IX);
    co_await locks.lockPage(rel, page, LockMode::X);

    co_await cpus.acquire();
    co_await cpus.compute(instr(p.dcMInstr));
    cpus.release();

    locks.unlockPage(rel, page, LockMode::X);
    locks.unlockRelation(rel, LockMode::IX);

    resp.add(sim::toMsec(sim.now() - arrival));
}

sim::Task<>
Node::remoteTxn(sim::SimTime arrival)
{
    const ClusterParams &p = cluster.params;
    int rel = static_cast<int>(rng.below(p.relations));
    std::uint64_t page = rng.below(p.pagesPerRelation);
    unsigned r = static_cast<unsigned>(rng.below(p.nodes - 1));
    if (r >= id)
        ++r;

    co_await locks.lockRelation(rel, LockMode::IX);
    co_await locks.lockPage(rel, page, LockMode::X);

    co_await cpus.acquire();
    co_await cpus.compute(instr(p.dcMInstr));
    cpus.release();

    // Ship the debit to the remote branch and hold the home locks
    // across the round trip (distributed commit) — the scaled
    // version of the paper's hold-locks-while-paging pathology.
    co_await RemoteCall{this, cluster.nodes[r].get(), {}};

    locks.unlockPage(rel, page, LockMode::X);
    locks.unlockRelation(rel, LockMode::IX);

    double ms = sim::toMsec(sim.now() - arrival);
    resp.add(ms);
    remoteResp.add(ms);
}

void
RemoteCall::await_suspend(std::coroutine_handle<> h)
{
    handle = h;
    Cluster &c = home->cluster;
    c.engine.post(remote->id, home->sim.now() + c.params.netLatency,
                  [call = this] {
                      call->remote->sim.spawn(
                          call->remote->serveRemote(call));
                  });
}

sim::Task<>
Node::serveRemote(RemoteCall *call)
{
    const ClusterParams &p = cluster.params;
    int rel = static_cast<int>(rng.below(p.relations));
    std::uint64_t page = rng.below(p.pagesPerRelation);

    co_await locks.lockRelation(rel, LockMode::IX);
    co_await locks.lockPage(rel, page, LockMode::X);

    co_await cpus.acquire();
    co_await cpus.compute(instr(p.remoteMInstr));
    cpus.release();

    locks.unlockPage(rel, page, LockMode::X);
    locks.unlockRelation(rel, LockMode::IX);

    cluster.engine.post(call->home->id, sim.now() + p.netLatency,
                        [call] {
                            sim::Simulation &s = call->home->sim;
                            s.scheduleResume(s.now(), call->handle);
                        });
}

} // namespace

ClusterResult
runClusterStudy(const ClusterParams &params)
{
    auto cluster = std::make_unique<Cluster>(params);
    // Spawn in node-id order: setup is single-threaded and its
    // program order is part of the determinism contract.
    for (auto &n : cluster->nodes)
        n->sim.spawn(n->arrivals());
    // Runs until no event or mail is left. A transaction blocked
    // forever on a lock leaves no event behind, so it shows only as
    // txns < arrived.
    cluster->engine.run();

    ClusterResult r;
    r.nodes = params.nodes;
    r.totalCpus = params.cpusPerNode *
                  static_cast<int>(params.nodes);

    std::size_t samples = 0;
    for (auto &n : cluster->nodes)
        samples += n->resp.count();
    sim::Distribution all;
    all.reserve(samples);
    sim::SampleStats remote;
    sim::Duration busy = 0;
    sim::Duration lockWait = 0;
    for (auto &n : cluster->nodes) {
        r.arrived += n->arrived;
        all.merge(n->resp);
        remote.merge(n->remoteResp);
        busy += n->cpus.busyTime();
        lockWait += n->locks.totalRelationWaitTime();
        r.events += n->sim.eventsRun();
    }
    r.avgMs = all.mean();
    r.p99Ms = all.percentile(0.99);
    r.worstMs = all.max();
    r.remoteAvgMs = remote.mean();
    r.txns = all.count();
    r.remoteTxns = remote.count();

    const sim::SimTime endT = cluster->engine.now();
    r.tpsAchieved =
        endT > 0 ? static_cast<double>(all.count()) / sim::toSec(endT)
                 : 0.0;
    const double cpuSeconds = sim::toSec(endT) * r.totalCpus;
    r.cpuUtilization =
        cpuSeconds > 0 ? sim::toSec(busy) / cpuSeconds : 0.0;
    r.lockWaitSec = sim::toSec(lockWait);
    r.epochs = cluster->engine.epochs();
    r.crossEvents = cluster->engine.crossEvents();
    return r;
}

} // namespace vpp::db
