/**
 * @file
 * Host-time microbenchmarks (google-benchmark) of the implementation
 * itself: these measure how fast *this library* executes kernel
 * operations, fault delivery and the simulation engine on the host —
 * useful for keeping the simulator fast, and distinct from the
 * simulated-time tables the paper benches report.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <chrono>

#include "apps/stack.h"
#include "core/kernel.h"
#include "db/lock.h"
#include "db/shared_kernel.h"
#include "hw/cache_model.h"
#include "hw/disk.h"
#include "inject/inject.h"
#include "managers/generic.h"
#include "managers/spcm.h"
#include "policy/clock.h"
#include "policy/policy.h"
#include "sim/random.h"
#include "sim/resource.h"
#include "sim/shard.h"
#include "uio/paging.h"

using namespace vpp;

namespace {

hw::MachineConfig
benchMachine()
{
    hw::MachineConfig m = hw::decstation5000_200();
    m.memoryBytes = 32 << 20;
    return m;
}

void
BM_EventScheduling(benchmark::State &state)
{
    sim::Simulation s;
    std::uint64_t n = 0;
    for (auto _ : state) {
        s.schedule(s.now() + 1, [&n] { ++n; });
        s.run();
    }
    benchmark::DoNotOptimize(n);
}
BENCHMARK(BM_EventScheduling);

void
BM_DeadlineChurn(benchmark::State &state)
{
    // The resilient fault's event pattern without the kernel: each
    // attempt arms a 120-ms deadline, awaits ten 1.4-ms steps and
    // cancels the deadline, so withdrawn deadlines outnumber live
    // ones. The deadline captures shared state, so it takes a slab
    // slot and waits in the timer heap, as the kernel's does.
    constexpr int kAttempts = 256;
    sim::Simulation s;
    auto fired = std::make_shared<std::uint64_t>(0);
    for (auto _ : state) {
        s.spawn([](sim::Simulation *sim,
                   std::shared_ptr<std::uint64_t> fired) -> sim::Task<> {
            for (int a = 0; a < kAttempts; ++a) {
                sim::EventId deadline = sim->schedule(
                    sim->now() + sim::msec(120), [fired] { ++*fired; });
                for (int k = 0; k < 10; ++k)
                    co_await sim->delay(sim::usec(1400));
                sim->cancel(deadline);
            }
        }(&s, fired));
        s.run();
    }
    benchmark::DoNotOptimize(*fired);
    state.SetItemsProcessed(state.iterations() * kAttempts);
}
BENCHMARK(BM_DeadlineChurn);

void
BM_EventThroughput(benchmark::State &state)
{
    // Many concurrent coroutines pushing delays through the queue:
    // exercises the heap/next-register interplay rather than the
    // schedule-one/run-one pattern of BM_EventScheduling.
    const int tasks = static_cast<int>(state.range(0));
    constexpr int kRounds = 64;
    for (auto _ : state) {
        sim::Simulation s;
        for (int i = 0; i < tasks; ++i) {
            s.spawn([](sim::Simulation *sim, int salt) -> sim::Task<> {
                for (int k = 0; k < kRounds; ++k) {
                    if ((k + salt) % 5 == 0)
                        co_await sim->yield();
                    else
                        co_await sim->delay(1 + (k + salt) % 7);
                }
            }(&s, i));
        }
        s.run();
        benchmark::DoNotOptimize(s.eventsRun());
    }
    state.SetItemsProcessed(state.iterations() * tasks * kRounds);
}
BENCHMARK(BM_EventThroughput)->Arg(4)->Arg(64)->Arg(512);

void
BM_MigratePagesNow(benchmark::State &state)
{
    sim::Simulation s;
    kernel::Kernel kern(s, benchMachine());
    kernel::SegmentId a =
        kern.createSegmentNow("a", 4096, 4096, 0);
    kernel::SegmentId b =
        kern.createSegmentNow("b", 4096, 4096, 0);
    kern.migratePagesNow(kernel::kPhysSegment, a, 0, 0, 1024, 0, 0);
    bool fwd = true;
    for (auto _ : state) {
        if (fwd)
            kern.migratePagesNow(a, b, 0, 0, state.range(0), 0, 0);
        else
            kern.migratePagesNow(b, a, 0, 0, state.range(0), 0, 0);
        fwd = !fwd;
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MigratePagesNow)->Arg(1)->Arg(16)->Arg(256)->Arg(1024);

void
BM_ResolveThroughBindings(benchmark::State &state)
{
    sim::Simulation s;
    kernel::Kernel kern(s, benchMachine());
    kernel::SegmentId file =
        kern.createSegmentNow("file", 4096, 256, 0);
    kern.migratePagesNow(kernel::kPhysSegment, file, 0, 0, 256, 0, 0);
    kernel::SegmentId data =
        kern.createSegmentNow("data", 4096, 256, 0);
    kern.bindRegionNow(data, 0, 256, file, 0, kernel::flag::kProtMask,
                       true);
    kernel::SegmentId va = kern.createSegmentNow("va", 4096, 256, 0);
    kern.bindRegionNow(va, 0, 256, data, 0, kernel::flag::kProtMask);
    std::uint64_t p = 0;
    for (auto _ : state) {
        auto r = kern.resolve(va, p % 256);
        benchmark::DoNotOptimize(r.entry);
        ++p;
    }
}
BENCHMARK(BM_ResolveThroughBindings);

void
BM_PerCpuResolveHit(benchmark::State &state)
{
    // Steady-state hit path of a per-CPU resolve cache: a 128-page
    // working set, two binding hops deep, that fits the cache, probed
    // through Kernel::cpuResolve, which validates each entry by
    // re-summing the live per-segment mutation epochs of its
    // resolution chain. Contrast with BM_ResolveThroughBindings, the
    // uncached binding walk over the same chain.
    sim::Simulation s;
    kernel::Kernel kern(s, benchMachine());
    kernel::SegmentId file =
        kern.createSegmentNow("file", 4096, 256, 0);
    kern.migratePagesNow(kernel::kPhysSegment, file, 0, 0, 256, 0, 0);
    kernel::SegmentId data =
        kern.createSegmentNow("data", 4096, 256, 0);
    kern.bindRegionNow(data, 0, 256, file, 0, kernel::flag::kProtMask,
                       true);
    kernel::SegmentId va = kern.createSegmentNow("va", 4096, 256, 0);
    kern.bindRegionNow(va, 0, 256, data, 0, kernel::flag::kProtMask);
    kern.configureCpus(1, /*snapshot_epochs=*/false);
    for (kernel::PageIndex p = 0; p < 128; ++p)
        kern.cpuStore(0, kern.resolveForCpu(va, p));
    std::uint64_t p = 0;
    for (auto _ : state) {
        const auto *r = kern.cpuResolve(0, va, p % 128);
        benchmark::DoNotOptimize(r);
        ++p;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PerCpuResolveHit);

void
BM_FullFaultPath(benchmark::State &state)
{
    sim::Simulation s;
    kernel::Kernel kern(s, benchMachine());
    mgr::SystemPageCacheManager spcm(kern, std::nullopt);
    mgr::GenericSegmentManager manager(
        kern, "m", hw::ManagerMode::SameProcess, &spcm, 1);
    manager.initNow(8192, 4096);
    kernel::SegmentId seg =
        kern.createSegmentNow("heap", 4096, 1 << 20, 1, &manager);
    kernel::Process proc("p", 1);
    kernel::PageIndex page = 0;
    for (auto _ : state) {
        if (manager.freePages() == 0) {
            state.PauseTiming();
            // Recycle: reclaim everything allocated so far and restart
            // from page 0 so long runs never hit the segment limit.
            std::vector<kernel::PageIndex> pages;
            pages.reserve(kern.segment(seg).pages().size());
            for (const auto &[pg, e] : kern.segment(seg).pages())
                pages.push_back(pg);
            for (auto pg : pages)
                kernel::runTask(s, manager.reclaimPage(kern, seg, pg));
            page = 0;
            state.ResumeTiming();
        }
        kernel::runTask(s, kern.touchSegment(
                               proc, seg, page++,
                               kernel::AccessType::Write));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullFaultPath);

void
BM_FaultBatch(benchmark::State &state)
{
    // Batched fault delivery (MachineConfig::faultCoalescing): N
    // faults raised at the same instant against one manager share a
    // single dispatch crossing. Items are faults, so the per-fault
    // host cost is directly comparable with BM_FullFaultPath.
    const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
    sim::Simulation s;
    hw::MachineConfig m = benchMachine();
    m.faultCoalescing = true;
    kernel::Kernel kern(s, m);
    mgr::SystemPageCacheManager spcm(kern, std::nullopt);
    mgr::GenericSegmentManager manager(
        kern, "m", hw::ManagerMode::SameProcess, &spcm, 1);
    manager.initNow(8192, 4096);
    kernel::SegmentId seg =
        kern.createSegmentNow("heap", 4096, 1 << 20, 1, &manager);
    kernel::Process proc("p", 1);
    kernel::PageIndex page = 0;
    for (auto _ : state) {
        if (manager.freePages() < n) {
            state.PauseTiming();
            std::vector<kernel::PageIndex> pages;
            pages.reserve(kern.segment(seg).pages().size());
            for (const auto &[pg, e] : kern.segment(seg).pages())
                pages.push_back(pg);
            for (auto pg : pages)
                kernel::runTask(s, manager.reclaimPage(kern, seg, pg));
            page = 0;
            state.ResumeTiming();
        }
        std::vector<sim::Task<>> touches;
        touches.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) {
            touches.push_back(kern.touchSegment(
                proc, seg, page++, kernel::AccessType::Write));
        }
        kernel::runTask(s, sim::joinAll(s, std::move(touches)));
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FaultBatch)->Arg(1)->Arg(8)->Arg(32);

void
BM_FaultRedeliver(benchmark::State &state)
{
    // Host cost of the resilient delivery machinery: a lying handler
    // forces redeliveries (a deadline race per attempt) until
    // an honest attempt resolves the fault. maxRedeliveries is high
    // enough that failover is unreachable, so every iteration stays
    // on the redelivery path.
    sim::Simulation s;
    kernel::Kernel kern(s, benchMachine());
    mgr::SystemPageCacheManager spcm(kern, std::nullopt);
    mgr::GenericSegmentManager manager(
        kern, "m", hw::ManagerMode::SameProcess, &spcm, 1);
    manager.initNow(8192, 4096);
    kernel::SegmentId seg =
        kern.createSegmentNow("heap", 4096, 1 << 20, 1, &manager);
    kernel::Process proc("p", 1);

    kernel::ResiliencePolicy pol;
    pol.enabled = true;
    pol.faultDeadline = sim::msec(10);
    pol.maxRedeliveries = 64;
    pol.retryBackoff = sim::usec(10);
    pol.failover = false;
    kern.setResiliencePolicy(pol);

    inject::Config icfg;
    icfg.enabled = true;
    icfg.seed = 42;
    icfg.manager.lieProb = 0.5;
    inject::Engine eng(icfg);
    kern.setInjector(&eng);

    kernel::PageIndex page = 0;
    for (auto _ : state) {
        if (manager.freePages() == 0) {
            state.PauseTiming();
            std::vector<kernel::PageIndex> pages;
            pages.reserve(kern.segment(seg).pages().size());
            for (const auto &[pg, e] : kern.segment(seg).pages())
                pages.push_back(pg);
            for (auto pg : pages)
                kernel::runTask(s, manager.reclaimPage(kern, seg, pg));
            page = 0;
            state.ResumeTiming();
        }
        kernel::runTask(s, kern.touchSegment(
                               proc, seg, page++,
                               kernel::AccessType::Write));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FaultRedeliver);

void
BM_FileFault(benchmark::State &state)
{
    // The vm_fault_churn fault in isolation: a missing page of a
    // cached file, filled from it by a separate-process default
    // manager under the kernel's 120-ms deadline policy, one fault per
    // iteration. The pool holds more frames than the file has pages;
    // reclaiming the file's pages between passes is untimed.
    constexpr kernel::PageIndex kPages = 256;
    apps::VppStack st(hw::decstation5000_200());
    mgr::DefaultSegmentManager m(st.kern, &st.spcm, st.server,
                                 st.registry);
    m.initNow(4096, 512);
    st.kern.setDefaultManager(&st.ucds);
    kernel::ResiliencePolicy pol;
    pol.enabled = true;
    pol.faultDeadline = sim::msec(120);
    pol.maxRedeliveries = 3;
    pol.retryBackoff = sim::msec(1);
    st.kern.setResiliencePolicy(pol);
    const uio::FileId f = st.server.createFile("f", kPages * 4096);
    const kernel::SegmentId seg = kernel::runTask(st.sim, m.openFile(f));
    kernel::Process proc("p", 1);
    kernel::PageIndex page = 0;
    for (auto _ : state) {
        if (page == kPages) {
            state.PauseTiming();
            for (kernel::PageIndex pg = 0; pg < kPages; ++pg)
                kernel::runTask(st.sim, m.reclaimPage(st.kern, seg, pg));
            page = 0;
            state.ResumeTiming();
        }
        kernel::runTask(st.sim, st.kern.touchSegment(
                                    proc, seg, page++,
                                    kernel::AccessType::Read));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FileFault);

void
BM_TouchResident(benchmark::State &state)
{
    // Warm touch: the page is resident and accessible, so this is the
    // no-fault delivery path (resolve + flag update), the common case
    // between faults.
    sim::Simulation s;
    kernel::Kernel kern(s, benchMachine());
    mgr::SystemPageCacheManager spcm(kern, std::nullopt);
    mgr::GenericSegmentManager manager(
        kern, "m", hw::ManagerMode::SameProcess, &spcm, 1);
    manager.initNow(256, 128);
    kernel::SegmentId seg =
        kern.createSegmentNow("heap", 4096, 1 << 20, 1, &manager);
    kernel::Process proc("p", 1);
    kernel::runTask(s, kern.touchSegment(proc, seg, 0,
                                         kernel::AccessType::Write));
    for (auto _ : state) {
        kernel::runTask(s, kern.touchSegment(
                               proc, seg, 0, kernel::AccessType::Read));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TouchResident);

void
BM_TouchResidentInTask(benchmark::State &state)
{
    // BM_TouchResident's warm touch without its runTask wrapper: one
    // task per iteration makes 1024 resident touches, so the per-item
    // cost is the touch itself.
    constexpr int kTouches = 1024;
    sim::Simulation s;
    kernel::Kernel kern(s, benchMachine());
    mgr::SystemPageCacheManager spcm(kern, std::nullopt);
    mgr::GenericSegmentManager manager(
        kern, "m", hw::ManagerMode::SameProcess, &spcm, 1);
    manager.initNow(256, 128);
    kernel::SegmentId seg =
        kern.createSegmentNow("heap", 4096, 1 << 20, 1, &manager);
    kernel::Process proc("p", 1);
    kernel::runTask(s, kern.touchSegment(proc, seg, 0,
                                         kernel::AccessType::Write));
    for (auto _ : state) {
        kernel::runTask(s, [](kernel::Kernel *k, kernel::Process *p,
                              kernel::SegmentId sg) -> sim::Task<> {
            for (int i = 0; i < kTouches; ++i)
                co_await k->touchSegment(*p, sg, 0,
                                         kernel::AccessType::Read);
        }(&kern, &proc, seg));
    }
    state.SetItemsProcessed(state.iterations() * kTouches);
}
BENCHMARK(BM_TouchResidentInTask);

void
BM_CopyFrame(benchmark::State &state)
{
    // The host cost of the simulated copy primitive: frame 1 already
    // holds data from the previous iteration, so each copyFrame is the
    // steady-state replace-with-copy path.
    hw::PhysicalMemory pm(1 << 20, 4096);
    std::memset(pm.write(0), 0xA5, 4096);
    for (auto _ : state) {
        pm.copyFrame(1, 0);
        benchmark::DoNotOptimize(pm.peek(1));
    }
    state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_CopyFrame);

void
BM_ZeroFill(benchmark::State &state)
{
    // The host cost of the simulated zero primitive over a batch of
    // committed frames. Repopulation between iterations is untimed
    // (manual time), so only the zeroing is measured.
    constexpr int kFrames = 256;
    hw::PhysicalMemory pm((kFrames + 1) * 4096, 4096);
    std::memset(pm.write(0), 0xA5, 4096);
    for (auto _ : state) {
        for (int i = 1; i <= kFrames; ++i)
            pm.copyFrame(i, 0);
        auto t0 = std::chrono::steady_clock::now();
        for (int i = 1; i <= kFrames; ++i)
            pm.zero(i);
        auto t1 = std::chrono::steady_clock::now();
        state.SetIterationTime(
            std::chrono::duration<double>(t1 - t0).count());
    }
    state.SetItemsProcessed(state.iterations() * kFrames);
    state.SetBytesProcessed(state.iterations() * kFrames * 4096);
}
BENCHMARK(BM_ZeroFill)->UseManualTime();

void
BM_PageInOut(benchmark::State &state)
{
    // Functional page-in + page-out of a whole cached file through the
    // frame store: the host data path of every manager's fill and
    // writeback, with no simulated time.
    constexpr std::uint64_t kPages = 256;
    sim::Simulation s;
    kernel::Kernel kern(s, benchMachine());
    hw::Disk disk(s, 0, 1000.0);
    uio::FileServer server(s, disk, 0);
    uio::FileId f = server.createFile("bench", kPages * 4096);
    std::vector<std::byte> blob(kPages * 4096, std::byte{0x5A});
    server.writeNow(f, 0, blob);
    kernel::SegmentId seg =
        kern.createSegmentNow("cache", 4096, kPages, 0);
    kern.migratePagesNow(kernel::kPhysSegment, seg, 0, 0, kPages, 0, 0);
    for (auto _ : state) {
        for (std::uint64_t p = 0; p < kPages; ++p)
            uio::pageInNow(kern, server, f, p * 4096, seg, p);
        for (std::uint64_t p = 0; p < kPages; ++p)
            uio::pageOutNow(kern, server, f, p * 4096, seg, p);
    }
    state.SetItemsProcessed(state.iterations() * kPages * 2);
    state.SetBytesProcessed(state.iterations() * kPages * 2 * 4096);
}
BENCHMARK(BM_PageInOut);

void
BM_ShardedStep(benchmark::State &state)
{
    // Per-epoch overhead of the sharded engine: 4 shards, each with
    // exactly one local event per lookahead window, so every epoch
    // pays the full merge/horizon/drain cycle (plus two barrier
    // crossings when workers > 1) for minimal useful work — the
    // worst case for the machinery, hence the number to watch.
    const unsigned workers = static_cast<unsigned>(state.range(0));
    constexpr unsigned kShards = 4;
    constexpr int kEpochs = 256;
    constexpr sim::Duration kLookahead = 1000;
    sim::ShardedSimulation ss(kShards, kLookahead, workers);
    std::uint64_t epochsRun = 0;
    for (auto _ : state) {
        for (unsigned s = 0; s < kShards; ++s) {
            sim::Simulation &sh = ss.shard(s);
            sh.spawn([](sim::Simulation *sim) -> sim::Task<> {
                for (int i = 0; i < kEpochs; ++i)
                    co_await sim->delay(kLookahead);
            }(&sh));
        }
        ss.run();
        epochsRun = ss.epochs();
    }
    benchmark::DoNotOptimize(epochsRun);
    state.SetItemsProcessed(state.iterations() * kEpochs);
}
BENCHMARK(BM_ShardedStep)->Arg(1)->Arg(2);

void
BM_CrossShardEvent(benchmark::State &state)
{
    // Round-trip cost of one cross-shard event: post into the
    // mailbox, barrier hand-off, canonical merge, delivery on the
    // destination — a two-shard ping-pong where every hop crosses.
    const unsigned workers = static_cast<unsigned>(state.range(0));
    constexpr int kRounds = 512;
    constexpr sim::Duration kLookahead = 1000;
    sim::ShardedSimulation ss(2, kLookahead, workers);
    struct PingPong
    {
        sim::ShardedSimulation *ss;
        int remaining = 0;

        void
        hop(unsigned me)
        {
            if (remaining-- <= 0)
                return;
            unsigned other = 1 - me;
            ss->post(other, ss->shard(me).now() + kLookahead,
                     [this, other] { hop(other); });
        }
    };
    PingPong pp{&ss};
    for (auto _ : state) {
        pp.remaining = kRounds;
        ss.post(0, ss.shard(0).now(), [&pp] { pp.hop(0); });
        ss.run();
    }
    benchmark::DoNotOptimize(ss.crossEvents());
    state.SetItemsProcessed(state.iterations() * kRounds);
}
BENCHMARK(BM_CrossShardEvent)->Arg(1)->Arg(2);

void
BM_MarketRound(benchmark::State &state)
{
    // Host cost of a batched auction round: `tenants` same-instant
    // 4-frame bids queued into one round and served inside one
    // crossing, frames picked from 4 shard ranges. Measures the round
    // machinery itself (collect, serve, answer), the per-grant kernel
    // work riding along.
    const std::uint64_t tenants =
        static_cast<std::uint64_t>(state.range(0));
    for (auto _ : state) {
        sim::Simulation s;
        kernel::Kernel kern(s, benchMachine());
        mgr::SpcmParams sp;
        sp.shards = 4;
        sp.batchedRounds = true;
        sp.admissionMaxWaiters = 16;
        sp.admissionMaxWait = sim::msec(1);
        mgr::SystemPageCacheManager spcm(kern, mgr::MarketParams{},
                                         sp);
        std::vector<mgr::ClientId> ids(tenants);
        std::vector<kernel::SegmentId> segs(tenants);
        for (std::uint64_t t = 0; t < tenants; ++t) {
            ids[t] = spcm.registerClient("t" + std::to_string(t),
                                         1000 + t, 1.0);
            spcm.deposit(ids[t], 1.0);
            segs[t] = kern.createSegmentNow(
                "s" + std::to_string(t), 4096, 8, 1000 + t);
        }
        for (std::uint64_t t = 0; t < tenants; ++t) {
            s.spawn([](mgr::SystemPageCacheManager *m,
                       mgr::ClientId c,
                       kernel::SegmentId seg) -> sim::Task<> {
                std::vector<kernel::PageIndex> slots{0, 1, 2, 3};
                co_await m->requestPages(c, seg, std::move(slots));
            }(&spcm, ids[t], segs[t]));
        }
        s.run();
        benchmark::DoNotOptimize(spcm.marketRounds());
    }
    state.SetItemsProcessed(state.iterations() * tenants);
}
BENCHMARK(BM_MarketRound)->Arg(8)->Arg(64)->Arg(256);

void
BM_SpcmRequestReturn(benchmark::State &state)
{
    // Host cost of one SPCM request and its return with rounds off at
    // one shard: each iteration grants 4 frames into a segment and
    // hands the same 4 back, so the pool never drains.
    sim::Simulation s;
    kernel::Kernel kern(s, benchMachine());
    mgr::SystemPageCacheManager spcm(kern, std::nullopt);
    mgr::ClientId c = spcm.registerClient("app", 1, 0.0);
    kernel::SegmentId seg = kern.createSegmentNow("dst", 4096, 8, 1);
    const std::vector<kernel::PageIndex> slots{0, 1, 2, 3};
    std::uint64_t moved = 0;
    for (auto _ : state) {
        moved += kernel::runTask(s, spcm.requestPages(c, seg, slots));
        moved += kernel::runTask(s, spcm.returnPages(c, seg, slots));
    }
    benchmark::DoNotOptimize(moved);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpcmRequestReturn);

void
BM_SharedKernelFault(benchmark::State &state)
{
    // Aggregate kernel-trip throughput of the shared-kernel
    // DebitCredit study at a fixed 8-shard scenario, varying host
    // worker threads (Arg). On a multi-core host the 8-worker run
    // should deliver a multiple of the 1-worker aggregate rate;
    // results stay byte-identical regardless, so only wall time moves.
    db::SharedKernelParams p;
    p.shards = 8;
    p.cpusPerShard = 4;
    p.relations = 8;
    p.pagesPerRelation = 64;
    p.hotPages = 32;
    p.durationSec = 0.05;
    p.workers = static_cast<unsigned>(state.range(0));
    std::uint64_t trips = 0;
    for (auto _ : state) {
        auto r = db::runSharedKernelStudy(p);
        trips += r.kernelTrips;
        benchmark::DoNotOptimize(r.touches);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(trips));
}
BENCHMARK(BM_SharedKernelFault)
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void
BM_RemoteKernelTrip(benchmark::State &state)
{
    // One warm resident remote trip per iteration, in the shared-kernel
    // study's shape: the kernel on shard 0, CPU 1 on shard 1, 50-us
    // IPIs, one worker. The CPU's task runs the benchmark loop inside
    // the engine, so an iteration is the request mail, the home
    // shard's drain, the reply mail, the CPU's wake and the epochs
    // they span, with no spawn and no run() per trip.
    constexpr kernel::PageIndex kPages = 16;
    sim::ShardedSimulation engine(2, sim::usec(50), 1);
    kernel::Kernel kern(engine.shard(0), benchMachine());
    kern.configureCpus(2, true);
    const kernel::SegmentId seg =
        kern.createSegmentNow("rel", 4096, kPages, 1);
    kern.migratePagesNow(kernel::kPhysSegment, seg, 0, 0, kPages,
                         kernel::flag::kReadable |
                             kernel::flag::kWritable,
                         0);
    engine.setEpochHook([&kern] { kern.publishCpuEpochs(); });
    kernel::Process proc("cpu1", 1);
    engine.shard(1).spawn([](benchmark::State &st,
                             sim::ShardedSimulation &e, kernel::Kernel &k,
                             kernel::Process &p,
                             kernel::SegmentId sg) -> sim::Task<> {
        auto trip = [&](kernel::PageIndex page) {
            return db::RemoteTrip(e, 1, e.lookahead(),
                                  k.touchOnCpu(1, p, sg, page,
                                               kernel::AccessType::Read));
        };
        co_await trip(0);
        kernel::PageIndex page = 0;
        for (auto _ : st) {
            page = (page + 1) % kPages;
            co_await trip(page);
        }
    }(state, engine, kern, proc, seg));
    engine.run();
    benchmark::DoNotOptimize(kern.stats().cpuTouchesQueued);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RemoteKernelTrip);

void
BM_CacheModelAccess(benchmark::State &state)
{
    hw::CacheModel cache(64 << 10, 16, state.range(0), 4096);
    sim::Random rng(7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(rng.below(1 << 22)));
    }
}
BENCHMARK(BM_CacheModelAccess)->Arg(1)->Arg(2)->Arg(4);

void
BM_LockAcquireRelease(benchmark::State &state)
{
    sim::Simulation s;
    db::MultiModeLock lock(s);
    for (auto _ : state) {
        bool ok = lock.tryAcquire(db::LockMode::IX);
        benchmark::DoNotOptimize(ok);
        lock.release(db::LockMode::IX);
    }
}
BENCHMARK(BM_LockAcquireRelease);

void
BM_DbTxnPath(benchmark::State &state)
{
    // A cluster-study transaction without contention: IX on the
    // relation, X on one of 1024 rotating pages, a CPU and 1 us of
    // compute, then release and unlock. One task per iteration runs
    // 1024 of them in sequence, so every page lock is made and dropped.
    constexpr std::uint64_t kTxns = 1024;
    sim::Simulation s;
    sim::CpuPool cpus(s, 1);
    db::HierarchicalLockManager locks(s, 1);
    for (auto _ : state) {
        kernel::runTask(s, [](sim::CpuPool *c,
                              db::HierarchicalLockManager *l)
                               -> sim::Task<> {
            for (std::uint64_t page = 0; page < kTxns; ++page) {
                co_await l->lockRelation(0, db::LockMode::IX);
                co_await l->lockPage(0, page, db::LockMode::X);
                co_await c->acquire();
                co_await c->compute(sim::usec(1));
                c->release();
                l->unlockPage(0, page, db::LockMode::X);
                l->unlockRelation(0, db::LockMode::IX);
            }
        }(&cpus, &locks));
    }
    benchmark::DoNotOptimize(cpus.busyTime());
    state.SetItemsProcessed(state.iterations() * kTxns);
}
BENCHMARK(BM_DbTxnPath);

void
BM_PageLockTable(benchmark::State &state)
{
    // N live page locks in a window sliding over 4 relations: each step
    // makes the lock at the window's head and drops the one at its
    // tail, so every step probes, inserts into and deletes from a table
    // of N locks. Key k is page (k / 4) << 20 of relation k % 4: every
    // page number is live in all four relations at once and pages
    // differ only from bit 20 up, keys that a hash of the low page bits
    // alone would pile into one probe run. One task per iteration
    // makes 1024 steps.
    constexpr std::uint64_t kSteps = 1024;
    const auto n = static_cast<std::uint64_t>(state.range(0));
    sim::Simulation s;
    db::HierarchicalLockManager locks(s, 4);
    auto slide = [](db::HierarchicalLockManager *l, std::uint64_t from,
                    std::uint64_t steps,
                    std::uint64_t window) -> sim::Task<> {
        for (std::uint64_t k = from; k < from + steps; ++k) {
            co_await l->lockPage(static_cast<int>(k % 4), (k / 4) << 20,
                                 db::LockMode::X);
            if (k >= window) {
                const std::uint64_t t = k - window;
                l->unlockPage(static_cast<int>(t % 4), (t / 4) << 20,
                              db::LockMode::X);
            }
        }
    };
    kernel::runTask(s, slide(&locks, 0, n, n));
    std::uint64_t head = n;
    for (auto _ : state) {
        kernel::runTask(s, slide(&locks, head, kSteps, n));
        head += kSteps;
    }
    if (locks.livePageLocks() != n)
        state.SkipWithError("window lost a lock");
    benchmark::DoNotOptimize(locks.livePageLocks());
    state.SetItemsProcessed(state.iterations() * kSteps);
}
BENCHMARK(BM_PageLockTable)->Arg(8)->Arg(256);

void
BM_Xoshiro(benchmark::State &state)
{
    sim::Random rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_Xoshiro);

// The replacement-policy hooks sit on the clockPass hot path, so the
// virtual-dispatch overhead vs the old inlined clock is gated:
// scripts/check_perf.sh requires BM_PolicyTouch within 1.1x of
// BM_PolicyTouchInline.
constexpr std::uint64_t kPolicyPages = 1024;

void
BM_PolicyTouch(benchmark::State &state)
{
    policy::PolicyParams pp;
    pp.capacityHint = kPolicyPages;
    pp.clockSecondChance = true;
    // The factory lives in another TU, so the compiler cannot prove
    // the dynamic type: every touch pays the virtual call, exactly
    // like the manager's policy_ pointer does.
    std::unique_ptr<policy::ReplacementPolicy> p =
        policy::make(policy::Kind::Clock, pp);
    for (std::uint64_t i = 0; i < kPolicyPages; ++i)
        p->insert(policy::makePageId(1, i));
    std::uint64_t i = 0;
    for (auto _ : state)
        p->touch(policy::makePageId(1, i++ & (kPolicyPages - 1)));
    benchmark::DoNotOptimize(p->stats().touches);
}
BENCHMARK(BM_PolicyTouch);

void
BM_PolicyTouchInline(benchmark::State &state)
{
    policy::PolicyParams pp;
    pp.capacityHint = kPolicyPages;
    pp.clockSecondChance = true;
    policy::ClockPolicy p(pp); // final class, direct calls
    for (std::uint64_t i = 0; i < kPolicyPages; ++i)
        p.insert(policy::makePageId(1, i));
    std::uint64_t i = 0;
    for (auto _ : state)
        p.touch(policy::makePageId(1, i++ & (kPolicyPages - 1)));
    benchmark::DoNotOptimize(p.stats().touches);
}
BENCHMARK(BM_PolicyTouchInline);

void
BM_PolicyVictim(benchmark::State &state)
{
    // Steady-state evict+insert throughput per online policy (the
    // arg indexes kAllKinds: 0 clock, 1 slru, 2 2q, 3 wsclock).
    policy::Kind kind =
        policy::kAllKinds[static_cast<std::size_t>(state.range(0))];
    policy::PolicyParams pp;
    pp.capacityHint = kPolicyPages;
    pp.clockSecondChance = true;
    std::unique_ptr<policy::ReplacementPolicy> p =
        policy::make(kind, pp);
    std::uint64_t next = 0;
    for (; next < kPolicyPages; ++next)
        p->insert(policy::makePageId(1, next));
    for (auto _ : state) {
        p->setNow(next);
        std::optional<policy::PageId> v = p->victim();
        benchmark::DoNotOptimize(v);
        p->insert(policy::makePageId(1, next++));
    }
    state.SetLabel(std::string(policy::kindName(kind)));
}
BENCHMARK(BM_PolicyVictim)->DenseRange(0, 3);

} // namespace

/**
 * Custom main so `--json[=path]` writes the machine-readable results
 * (default BENCH_host.json) used by scripts/check_perf.sh to track the
 * host-perf trajectory across commits. It expands to google-benchmark's
 * --benchmark_out/--benchmark_out_format flags.
 */
int
main(int argc, char **argv)
{
    std::vector<char *> args;
    std::string outPath;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            outPath = "BENCH_host.json";
        } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
            outPath = argv[i] + 7;
            if (outPath.empty()) {
                std::fprintf(stderr,
                             "error: --json= requires a path\n");
                return 1;
            }
        } else {
            args.push_back(argv[i]);
        }
    }
    std::string outFlag, fmtFlag;
    if (!outPath.empty()) {
        outFlag = "--benchmark_out=" + outPath;
        fmtFlag = "--benchmark_out_format=json";
        args.push_back(outFlag.data());
        args.push_back(fmtFlag.data());
    }
    int n = static_cast<int>(args.size());
    benchmark::Initialize(&n, args.data());
    if (benchmark::ReportUnrecognizedArguments(n, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
