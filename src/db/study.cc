#include "db/study.h"

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include "db/lock.h"
#include "sim/random.h"
#include "sim/resource.h"
#include "sim/simulation.h"
#include "sim/stats.h"
#include "sim/sync.h"

namespace vpp::db {

const char *
dbConfigName(DbConfig c)
{
    switch (c) {
      case DbConfig::NoIndex: return "No index";
      case DbConfig::IndexInMemory: return "Index in memory";
      case DbConfig::IndexWithPaging: return "Index with paging";
      case DbConfig::IndexRegeneration: return "Index regeneration";
    }
    return "?";
}

namespace {

/** Shared state of one study run. */
struct Study
{
    Study(DbConfig cfg, const DbParams &p)
        : config(cfg), params(p), cpus(sim, p.cpus),
          locks(sim, p.relations), indexLatch(sim), rng(p.seed)
    {}

    sim::Duration
    instr(double minstr) const
    {
        return static_cast<sim::Duration>(minstr * 1e9 / params.mips);
    }

    /**
     * Make sure the join index is usable. In the paging
     * configuration a non-resident index is demand-paged from disk —
     * serialized behind the index latch, while the caller's locks
     * stay held (the paper's key pathology). In the regeneration
     * configuration the application rebuilds it from in-memory data.
     */
    sim::Task<>
    ensureIndex()
    {
        if (config == DbConfig::NoIndex)
            co_return;
        if (indexResident)
            co_return;
        co_await indexLatch.lock();
        if (!indexResident) {
            if (config == DbConfig::IndexWithPaging) {
                for (std::uint64_t pg = 0; pg < params.indexPages;
                     ++pg) {
                    co_await sim.delay(params.pageFaultDelay);
                    ++indexPageFaults;
                }
            } else if (config == DbConfig::IndexRegeneration) {
                co_await cpus.acquire();
                co_await cpus.compute(instr(params.regenMInstr));
                cpus.release();
                ++indexRebuilds;
            }
            indexResident = true;
        }
        indexLatch.unlock();
    }

    sim::Task<>
    debitCredit(sim::SimTime arrival)
    {
        int rel = static_cast<int>(rng.below(params.relations));
        std::uint64_t page = rng.below(params.pagesPerRelation);

        co_await locks.lockRelation(rel, LockMode::IX);
        co_await locks.lockPage(rel, page, LockMode::X);

        // The account lookup goes through the index (when one
        // exists); a fault here extends lock hold time.
        co_await ensureIndex();

        co_await cpus.acquire();
        co_await cpus.compute(instr(params.dcMInstr));
        cpus.release();

        locks.unlockPage(rel, page, LockMode::X);
        locks.unlockRelation(rel, LockMode::IX);

        dcResp.add(sim::toMsec(sim.now() - arrival));
        ++completed;
    }

    sim::Task<>
    join(sim::SimTime arrival)
    {
        // Two source relations, one (distinct) target updated.
        int a = static_cast<int>(rng.below(params.relations));
        int b, c;
        do {
            b = static_cast<int>(rng.below(params.relations));
        } while (b == a);
        do {
            c = static_cast<int>(rng.below(params.relations));
        } while (c == a || c == b);

        const bool scan = config == DbConfig::NoIndex;

        struct Need
        {
            int rel;
            LockMode mode;
        };
        // Cursor-style locking for both join flavours: intention
        // locks on the relations, page locks beneath (a scan holds
        // each page lock only briefly as its cursor moves). What the
        // missing index costs is processor time: a scan join occupies
        // a CPU for seconds, and at 40 TPS the scans saturate the
        // six-processor machine, queueing every DebitCredit behind
        // them.
        std::vector<Need> needs = {{a, LockMode::IS},
                                   {b, LockMode::IS},
                                   {c, LockMode::IX}};
        std::sort(needs.begin(), needs.end(),
                  [](const Need &x, const Need &y) {
                      return x.rel < y.rel;
                  });
        for (const Need &n : needs)
            co_await locks.lockRelation(n.rel, n.mode);

        // Page locks beneath the intention locks: probed source pages
        // (index joins only) and the updated target pages. A page
        // drawn twice is locked once, since asking again for a lock
        // the join holds could wait on itself forever. All pages go
        // in ascending (rel, page) order, like the relations, so no
        // two transactions wait on each other in a cycle. The target
        // differs from both sources, so a page's mode follows from its
        // relation and whole tuples sort and compare as (rel, page).
        std::vector<std::tuple<int, std::uint64_t, LockMode>> pages;
        for (int src : {a, b}) {
            for (int i = 0; i < 3; ++i) {
                pages.emplace_back(src,
                                   rng.below(params.pagesPerRelation),
                                   LockMode::S);
            }
        }
        for (int i = 0; i < 3; ++i) {
            pages.emplace_back(c, rng.below(params.pagesPerRelation),
                               LockMode::X);
        }
        std::sort(pages.begin(), pages.end());
        pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
        for (const auto &[rel, pg, mode] : pages)
            co_await locks.lockPage(rel, pg, mode);

        co_await ensureIndex();

        double work = scan ? params.joinScanMInstr
                           : params.joinProbeMInstr;
        co_await cpus.acquire();
        co_await cpus.compute(instr(work));
        cpus.release();

        for (auto it = pages.rbegin(); it != pages.rend(); ++it) {
            const auto &[rel, pg, mode] = *it;
            locks.unlockPage(rel, pg, mode);
        }
        for (auto it = needs.rbegin(); it != needs.rend(); ++it)
            locks.unlockRelation(it->rel, it->mode);

        joinResp.add(sim::toMsec(sim.now() - arrival));
        ++completed;
    }

    sim::Task<>
    arrivals()
    {
        sim::SimTime end = sim::sec(params.durationSec);
        while (sim.now() < end) {
            co_await sim.delay(static_cast<sim::Duration>(
                rng.exponential(1e9 / params.tps)));
            ++arrived;
            // Memory pressure: every pagingPeriodTxns transactions
            // the 1 MB shortfall costs the program its index — by
            // transparent eviction (paging) or by an allocation
            // notice the application answers with a discard
            // (regeneration).
            if ((config == DbConfig::IndexWithPaging ||
                 config == DbConfig::IndexRegeneration) &&
                arrived % params.pagingPeriodTxns == 0) {
                indexResident = false;
                ++indexEvictions;
            }
            sim::SimTime t = sim.now();
            if (rng.uniform() < params.joinFraction)
                sim.spawn(join(t));
            else
                sim.spawn(debitCredit(t));
        }
    }

    DbConfig config;
    DbParams params;
    sim::Simulation sim;
    sim::CpuPool cpus;
    HierarchicalLockManager locks;
    sim::SimMutex indexLatch;
    sim::Random rng;

    bool indexResident = true;
    std::uint64_t arrived = 0;
    std::uint64_t completed = 0;
    std::uint64_t indexPageFaults = 0;
    std::uint64_t indexRebuilds = 0;
    std::uint64_t indexEvictions = 0;
    sim::Distribution dcResp;
    sim::Distribution joinResp;
};

} // namespace

DbResult
runDbStudy(DbConfig config, const DbParams &params)
{
    auto study = std::make_unique<Study>(config, params);
    study->sim.spawn(study->arrivals());
    // Runs until no event is left. A transaction blocked forever on a
    // lock leaves no event behind, so it shows only as txns < arrived.
    study->sim.run();

    DbResult r;
    r.config = dbConfigName(config);
    sim::Distribution all;
    all.reserve(study->dcResp.count() + study->joinResp.count());
    for (double v : study->dcResp.samples())
        all.add(v);
    for (double v : study->joinResp.samples())
        all.add(v);
    r.avgMs = all.mean();
    r.worstMs = all.max();
    r.p99Ms = all.percentile(0.99);
    r.dcAvgMs = study->dcResp.mean();
    r.dcWorstMs = study->dcResp.max();
    r.joinAvgMs = study->joinResp.mean();
    r.joinWorstMs = study->joinResp.max();
    r.arrived = study->arrived;
    r.txns = all.count();
    r.joins = study->joinResp.count();
    r.indexPageFaults = study->indexPageFaults;
    r.indexRebuilds = study->indexRebuilds;
    r.indexEvictions = study->indexEvictions;
    r.cpuUtilization = study->cpus.utilization();
    r.lockWaitSec =
        sim::toSec(study->locks.totalRelationWaitTime());
    return r;
}

} // namespace vpp::db
