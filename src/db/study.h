/**
 * @file
 * The database transaction-processing study (paper §3.3, Table 4).
 *
 * "The program is a mixture of implementation and simulation. The
 * locks were implemented and the parallelism is real. However, the
 * execution of a transaction is simulated by looping for some number
 * of instructions and a page fault is simulated by a delay."
 *
 * This module takes the same approach on the simulated SGI 4D/380:
 * six processors, a 120 MB database, open Poisson arrivals of 40
 * transactions per second, 95 % DebitCredit / 5 % two-relation joins
 * updating a third, hierarchical locking, and four memory
 * configurations for the one-megabyte join index:
 *
 *  - NoIndex:           joins scan their source relations;
 *  - IndexInMemory:     the index is always resident;
 *  - IndexWithPaging:   the program's virtual memory exceeds its
 *                       allocation by 1 MB, so the index is evicted
 *                       every ~500 transactions and must be paged
 *                       back from disk — while locks are held;
 *  - IndexRegeneration: the application is told its allocation
 *                       shrank, discards the index, and regenerates
 *                       it in memory when next needed (the
 *                       application-controlled policy the paper
 *                       advocates).
 */

#ifndef VPP_DB_STUDY_H
#define VPP_DB_STUDY_H

#include <cstdint>
#include <string>

#include "sim/time.h"

namespace vpp::db {

enum class DbConfig
{
    NoIndex,
    IndexInMemory,
    IndexWithPaging,
    IndexRegeneration,
};

const char *dbConfigName(DbConfig c);

struct DbParams
{
    int cpus = 6;
    double mips = 30.0;        ///< per-CPU (SGI 4D/380)
    double tps = 40.0;         ///< open arrival rate
    double joinFraction = 0.05;
    int relations = 20;        ///< 120 MB database, ~6 MB each
    std::uint64_t pagesPerRelation = 1536;
    std::uint64_t indexPages = 256; ///< the 1 MB index
    double dcMInstr = 0.6;          ///< DebitCredit work (~20 ms)
    double joinProbeMInstr = 11.0;  ///< index join (~370 ms)
    double joinScanMInstr = 68.0;   ///< scan join (~2.3 s)
    double regenMInstr = 10.0;      ///< in-memory index rebuild
    sim::Duration pageFaultDelay = sim::msec(13); ///< per-page fault
    int pagingPeriodTxns = 500; ///< eviction/discard cadence
    double durationSec = 250.0; ///< arrival window
    std::uint64_t seed = 42;
};

struct DbResult
{
    std::string config;
    double avgMs = 0;     ///< Table 4 column 1
    double worstMs = 0;   ///< Table 4 column 2
    double dcAvgMs = 0;
    double dcWorstMs = 0;
    double joinAvgMs = 0;
    double joinWorstMs = 0;
    double p99Ms = 0;
    std::uint64_t arrived = 0; ///< arrivals in the window
    std::uint64_t txns = 0;    ///< completed; == arrived unless one hung
    std::uint64_t joins = 0;
    std::uint64_t indexPageFaults = 0;
    std::uint64_t indexRebuilds = 0;
    std::uint64_t indexEvictions = 0;
    double cpuUtilization = 0;
    double lockWaitSec = 0;
};

DbResult runDbStudy(DbConfig config, const DbParams &params = {});

} // namespace vpp::db

#endif // VPP_DB_STUDY_H
