/**
 * @file
 * The scaled DebitCredit cluster study: one simulation, hundreds of
 * simulated CPUs.
 *
 * The paper's §3.3 study runs 6 processors on one SGI 4D/380 at 40
 * TPS. This study is the same workload grown to production scale: N
 * database nodes, each a branch partition with its own processors,
 * relations, hierarchical locks and Poisson arrival stream, joined
 * by a network whose one-way hop latency is the sharded engine's
 * lookahead (sim/shard.h). Most transactions are branch-local; a
 * TPC-A-style fraction debit a *remote* branch, holding their home
 * locks across the round trip — the distributed version of the
 * paper's hold-locks-while-paging pathology, and the cross-shard
 * traffic that exercises the mailbox/epoch machinery.
 *
 * Every node is one logical shard, so a 32-node x 8-CPU run is a
 * single 256-CPU simulation that `workers` host threads execute in
 * parallel — with results bit-identical at any worker count.
 */

#ifndef VPP_DB_CLUSTER_H
#define VPP_DB_CLUSTER_H

#include <cstdint>
#include <string>

#include "sim/time.h"

namespace vpp::db {

struct ClusterParams
{
    unsigned nodes = 16;       ///< logical shards
    int cpusPerNode = 8;       ///< simulated CPUs per node
    double mips = 500.0;       ///< per-CPU (a 2020s core, not 1992's)
    double tps = 20000.0;      ///< total open arrival rate, split evenly
    double remoteFraction = 0.15; ///< txns that debit a remote branch
    int relations = 8;            ///< per node
    std::uint64_t pagesPerRelation = 1024;
    double dcMInstr = 0.6;     ///< home-branch debit/credit work
    double remoteMInstr = 0.3; ///< remote branch's share
    /// One-way network hop; doubles as the engine lookahead, so it
    /// bounds how wide the parallel epoch windows can be.
    sim::Duration netLatency = sim::usec(500);
    double durationSec = 20.0; ///< arrival window
    std::uint64_t seed = 42;
    unsigned workers = 0;      ///< host threads; 0 = VPP_SHARDS, else 1
};

struct ClusterResult
{
    unsigned nodes = 0;
    int totalCpus = 0;
    double avgMs = 0;
    double p99Ms = 0;
    double worstMs = 0;
    double remoteAvgMs = 0;
    std::uint64_t arrived = 0; ///< arrivals in the window, all nodes
    std::uint64_t txns = 0;    ///< completed; == arrived unless one hung
    std::uint64_t remoteTxns = 0;
    double tpsAchieved = 0;    ///< completed / max shard clock
    double cpuUtilization = 0; ///< mean across every CPU in the cluster
    double lockWaitSec = 0;
    std::uint64_t epochs = 0;      ///< deterministic window count
    std::uint64_t crossEvents = 0; ///< deterministic mailbox traffic
    std::uint64_t events = 0;      ///< events executed, every shard
};

ClusterResult runClusterStudy(const ClusterParams &params = {});

} // namespace vpp::db

#endif // VPP_DB_CLUSTER_H
