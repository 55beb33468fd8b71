#include "db/shared_kernel.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/kernel.h"
#include "core/process.h"
#include "hw/config.h"
#include "managers/generic.h"
#include "managers/spcm.h"
#include "sim/random.h"
#include "sim/resource.h"
#include "sim/shard.h"
#include "sim/simulation.h"
#include "sim/stats.h"
#include "sim/sync.h"

namespace vpp::db {

namespace {

struct World;

/** One simulated CPU: lives on shard id / cpusPerShard. */
struct Cpu
{
    unsigned id = 0;
    unsigned shard = 0;
    sim::Random rng{0};
    int hotRel = 0;
    std::uint64_t hotStart = 0;
    sim::Distribution resp; ///< per-txn latency (ms)
    std::uint64_t txns = 0;
    std::uint64_t touches = 0;
    std::uint64_t localHits = 0;
    std::uint64_t kernelTrips = 0;
    std::uint64_t crossRpcs = 0;
};

struct World
{
    explicit World(const SharedKernelParams &p);

    sim::Duration instr(double minstr) const
    {
        return static_cast<sim::Duration>(minstr * 1e9 / params.mips);
    }

    sim::Task<> cpuLoop(Cpu &cpu);
    sim::Task<> touchOnce(Cpu &cpu, kernel::SegmentId seg,
                          kernel::PageIndex page, kernel::AccessType a);
    sim::Task<> serveMiss(unsigned cpu, kernel::SegmentId seg,
                          kernel::PageIndex page, kernel::AccessType a,
                          unsigned srcShard, sim::Promise<> done);
    sim::Task<> recycler();

    SharedKernelParams params;
    sim::ShardedSimulation engine;
    sim::Simulation &home; ///< shard 0, where the kernel lives
    hw::MachineConfig machine;
    kernel::Kernel kern;
    mgr::SystemPageCacheManager spcm;
    mgr::GenericSegmentManager manager;
    std::vector<kernel::SegmentId> rels;
    std::vector<std::unique_ptr<kernel::Process>> procs;
    std::vector<std::unique_ptr<Cpu>> cpus;
    std::vector<std::unique_ptr<sim::CpuPool>> pools; ///< per shard
    sim::SimTime end;
};

hw::MachineConfig
sharedKernelMachine()
{
    hw::MachineConfig m = hw::decstation5000_200();
    // Room for the whole database plus the manager's free pool: the
    // study is about fault traffic, not memory pressure.
    m.memoryBytes = 128 << 20;
    m.faultCoalescing = true; // same-instant CPU faults share batches
    return m;
}

World::World(const SharedKernelParams &p)
    : params(p),
      engine(p.shards, p.ipiLatency, p.workers),
      home(engine.shard(0)),
      machine(sharedKernelMachine()),
      kern(home, machine),
      spcm(kern, std::nullopt),
      manager(kern, "dbmgr", hw::ManagerMode::SameProcess, &spcm, 1),
      end(sim::sec(p.durationSec))
{
    manager.initNow(16384, 12288);

    const unsigned ncpus =
        p.shards * static_cast<unsigned>(p.cpusPerShard);
    // Snapshot-mode epochs always (even at workers == 1): validation
    // is a scenario property, not a host-thread property, so every
    // worker count sees identical hits and misses.
    kern.configureCpus(ncpus, /*snapshot_epochs=*/true);
    engine.setEpochHook([this] { kern.publishCpuEpochs(); });

    rels.reserve(p.relations);
    for (int r = 0; r < p.relations; ++r) {
        rels.push_back(kern.createSegmentNow(
            "rel" + std::to_string(r), 4096, p.pagesPerRelation, 1,
            &manager));
    }

    pools.reserve(p.shards);
    for (unsigned s = 0; s < p.shards; ++s) {
        pools.push_back(std::make_unique<sim::CpuPool>(
            engine.shard(s), p.cpusPerShard));
    }

    procs.reserve(ncpus);
    cpus.reserve(ncpus);
    const std::uint64_t hotSpan =
        p.pagesPerRelation > static_cast<std::uint64_t>(p.hotPages)
            ? p.pagesPerRelation - p.hotPages
            : 1;
    for (unsigned c = 0; c < ncpus; ++c) {
        procs.push_back(std::make_unique<kernel::Process>(
            "cpu" + std::to_string(c), 1));
        auto cpu = std::make_unique<Cpu>();
        cpu->id = c;
        cpu->shard = c / static_cast<unsigned>(p.cpusPerShard);
        // Independent per-CPU streams (splitmix64-style scramble).
        cpu->rng = sim::Random(
            p.seed ^
            (0x9e3779b97f4a7c15ull * (std::uint64_t{c} + 1)));
        cpu->hotRel = static_cast<int>(c % p.relations);
        cpu->hotStart =
            ((c / p.relations) * 37ull) % hotSpan;
        cpus.push_back(std::move(cpu));
    }
}

sim::Task<>
World::touchOnce(Cpu &cpu, kernel::SegmentId seg,
                 kernel::PageIndex page, kernel::AccessType a)
{
    ++cpu.touches;
    const std::uint32_t need = a == kernel::AccessType::Write
                                   ? kernel::flag::kWritable
                                   : kernel::flag::kReadable;
    const kernel::CpuResolution *r = kern.cpuResolve(cpu.id, seg, page);
    if (r && (r->flags & need) && (r->regionProt & need) &&
        !(a == kernel::AccessType::Write && r->viaCow)) {
        // Fully local: the cached resolution authorises the access on
        // the owning shard, with no kernel involvement at all.
        ++cpu.localHits;
        co_return;
    }
    ++cpu.kernelTrips;
    if (cpu.shard == 0) {
        // Home CPUs reach the kernel without an IPI hop.
        co_await kern.touchOnCpu(cpu.id, *procs[cpu.id], seg, page, a);
        kern.cpuStore(cpu.id, kern.resolveForCpu(seg, page));
        co_return;
    }
    // Remote CPU: the miss crosses to shard 0, the kernel services it
    // through the per-CPU queue + fault machinery, and the resolution
    // value travels back for this shard to cache.
    ++cpu.crossRpcs;
    sim::Simulation &mySim = engine.shard(cpu.shard);
    sim::Promise<> done(mySim);
    sim::Future<> reply = done.future();
    engine.post(0, mySim.now() + params.ipiLatency,
                [this, c = cpu.id, seg, page, a,
                 src = cpu.shard, done]() mutable {
                    home.spawn(serveMiss(c, seg, page, a, src,
                                         std::move(done)));
                });
    co_await reply;
}

sim::Task<>
World::serveMiss(unsigned cpu, kernel::SegmentId seg,
                 kernel::PageIndex page, kernel::AccessType a,
                 unsigned srcShard, sim::Promise<> done)
{
    co_await kern.touchOnCpu(cpu, *procs[cpu], seg, page, a);
    const kernel::CpuResolution v = kern.resolveForCpu(seg, page);
    engine.post(srcShard, home.now() + params.ipiLatency,
                [this, cpu, v, done]() mutable {
                    // Runs on the owning shard: it alone writes this
                    // CPU's cache.
                    kern.cpuStore(cpu, v);
                    done.setValue();
                });
}

sim::Task<>
World::cpuLoop(Cpu &cpu)
{
    sim::Simulation &sim = engine.shard(cpu.shard);
    sim::CpuPool &pool = *pools[cpu.shard];
    const SharedKernelParams &p = params;
    while (sim.now() < end) {
        const sim::SimTime arrival = sim.now();
        co_await pool.acquire();
        co_await pool.compute(instr(p.txnMInstr));
        for (int t = 0; t < p.touchesPerTxn; ++t) {
            int rel;
            kernel::PageIndex page;
            if (cpu.rng.uniform() < p.hotFraction) {
                rel = cpu.hotRel;
                page = cpu.hotStart +
                       cpu.rng.below(
                           static_cast<std::uint64_t>(p.hotPages));
            } else {
                rel = static_cast<int>(
                    cpu.rng.below(static_cast<std::uint64_t>(
                        p.relations)));
                page = cpu.rng.below(p.pagesPerRelation);
            }
            const kernel::AccessType a =
                cpu.rng.uniform() < p.writeFraction
                    ? kernel::AccessType::Write
                    : kernel::AccessType::Read;
            co_await touchOnce(cpu, rels[rel], page, a);
        }
        pool.release();
        ++cpu.txns;
        cpu.resp.add(sim::toMsec(sim.now() - arrival));
    }
}

sim::Task<>
World::recycler()
{
    // Steady reclaim pressure from the home shard: sweep the database
    // round-robin so pages keep leaving and re-entering residency —
    // the fault traffic (and the per-segment epoch churn behind the
    // caches) never dries up once the working set is resident.
    int rel = 0;
    kernel::PageIndex page = 0;
    while (home.now() < end) {
        co_await home.delay(params.reclaimEvery);
        std::uint64_t reclaimed = 0;
        std::uint64_t scanned = 0;
        const std::uint64_t total = static_cast<std::uint64_t>(
                                        params.relations) *
                                    params.pagesPerRelation;
        while (reclaimed < params.reclaimBatch && scanned < total) {
            ++scanned;
            if (kern.segment(rels[rel]).findPage(page)) {
                co_await manager.reclaimPage(kern, rels[rel], page);
                ++reclaimed;
            }
            if (++page >= params.pagesPerRelation) {
                page = 0;
                rel = (rel + 1) % params.relations;
            }
        }
    }
}

} // namespace

SharedKernelResult
runSharedKernelStudy(const SharedKernelParams &params)
{
    auto w = std::make_unique<World>(params);
    // Spawn in CPU-id order: setup program order is part of the
    // determinism contract.
    for (auto &cpu : w->cpus)
        w->engine.shard(cpu->shard).spawn(w->cpuLoop(*cpu));
    w->home.spawn(w->recycler());
    w->engine.run();

    SharedKernelResult r;
    r.shards = params.shards;
    r.totalCpus =
        params.cpusPerShard * static_cast<int>(params.shards);

    sim::Distribution all;
    sim::Duration busy = 0;
    for (auto &cpu : w->cpus) {
        all.merge(cpu->resp);
        r.txns += cpu->txns;
        r.touches += cpu->touches;
        r.localHits += cpu->localHits;
        r.kernelTrips += cpu->kernelTrips;
        r.crossRpcs += cpu->crossRpcs;
        r.probeHits += w->kern.cpuHits(cpu->id);
        r.probeMisses += w->kern.cpuMisses(cpu->id);
    }
    for (auto &pool : w->pools)
        busy += pool->busyTime();

    const kernel::Kernel::Stats &ks = w->kern.stats();
    r.faults = ks.faults;
    r.faultBatches = ks.faultBatches;
    r.faultsCoalesced = ks.faultsCoalesced;
    r.cpuTouchesQueued = ks.cpuTouchesQueued;
    r.pagesMigrated = ks.pagesMigrated;

    r.avgMs = all.mean();
    r.p99Ms = all.percentile(0.99);
    r.worstMs = all.max();
    const sim::SimTime endT = w->engine.now();
    r.tpsAchieved =
        endT > 0 ? static_cast<double>(r.txns) / sim::toSec(endT)
                 : 0.0;
    r.hitRate = r.touches > 0 ? static_cast<double>(r.localHits) /
                                    static_cast<double>(r.touches)
                              : 0.0;
    const double cpuSeconds = sim::toSec(endT) * r.totalCpus;
    r.cpuUtilization =
        cpuSeconds > 0 ? sim::toSec(busy) / cpuSeconds : 0.0;
    r.epochs = w->engine.epochs();
    r.crossEvents = w->engine.crossEvents();
    return r;
}

} // namespace vpp::db
