/**
 * @file
 * vm_fault_churn: one simulated process on a DECstation V++ machine
 * makes random 4 KB touches (25 % writes) over four cached files of 512
 * pages each. The files belong to a separate-process default segment
 * manager stocked with 512 frames; every 25 transactions of 24 touches
 * the process runs clockPass(192). This is the clean V++ row of
 * bench/table_robustness, run for as long as the host-time budget
 * allows.
 *
 * The run is split into windows of kChunksPerWindow chunks (a chunk is
 * 25 transactions plus the clock pass). The first prefixWindows windows
 * are the deterministic prefix: every simulated metric and per-layer
 * count is taken over them, so they repeat exactly for a seed whatever
 * the host speed. Host rates come from all windows.
 */

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "apps/stack.h"
#include "sim/mem_accounting.h"
#include "sim/random.h"
#include "workloads.h"

namespace e2e {

namespace {

using namespace vpp;

constexpr int kFiles = 4;
constexpr std::uint64_t kFilePages = 512;
constexpr int kTouchesPerTxn = 24;
constexpr int kTxnsPerChunk = 25;
constexpr std::uint64_t kReclaimTarget = 192;
constexpr std::uint64_t kManagerFrames = 512;
constexpr double kWriteFraction = 0.25;
constexpr int kWarmupChunks = 8;
constexpr int kSetupRepeats = 9;
constexpr int kChunksPerWindow = 20;
constexpr int kPrefixWindows = 40;
constexpr int kQuickPrefixWindows = 2;

/** Everything the touch loop and the traced manager record. */
struct Probe
{
    Tracer *tracer = nullptr; ///< null in the untraced pass
    bool inPrefix = false;

    // Deterministic prefix, simulated ns.
    std::int64_t touchSimNs = 0;
    std::int64_t faultSimNs = 0;
    std::uint64_t faultsTimed = 0;
    std::vector<std::int64_t> clockSim;
    std::int64_t clockSimNs = 0;
    std::int64_t fillSimNs = 0; ///< traced pass only

    // Whole timed run, host ns (traced pass only).
    LogHistogram residentHost;
    LogHistogram faultHost;
    LogHistogram clockHost;
    LogHistogram fillHost;
    LogHistogram writebackHost;

    std::uint64_t badTouches = 0; ///< page absent or clean after a touch
    std::uint64_t badPasses = 0;  ///< clockPass reclaimed over target

    void begin(Layer l, const char *name)
    {
        if (tracer)
            tracer->begin(l, name);
    }
    void end()
    {
        if (tracer)
            tracer->end();
    }
    /** Close the innermost span and add its duration to @p h. */
    void end(LogHistogram &h)
    {
        if (tracer)
            h.add(tracer->end());
    }
};

/**
 * The default manager with host-time spans around the page fill and
 * writeback hooks; both overrides only forward. Used in the traced pass
 * only.
 */
class TracedManager : public mgr::DefaultSegmentManager
{
  public:
    TracedManager(kernel::Kernel &k, mgr::SystemPageCacheManager *spcm,
                  uio::FileServer &server, uio::FileRegistry &reg,
                  Probe &probe)
        : DefaultSegmentManager(k, spcm, server, reg), probe_(&probe)
    {}

  protected:
    sim::Task<> fillPage(kernel::Kernel &k, const kernel::Fault &f,
                         kernel::PageIndex dst_page,
                         kernel::PageIndex free_slot) override
    {
        const sim::SimTime s0 = k.simulation().now();
        probe_->begin(Layer::Uio, "fillPage");
        co_await DefaultSegmentManager::fillPage(k, f, dst_page, free_slot);
        probe_->end(probe_->fillHost);
        if (probe_->inPrefix)
            probe_->fillSimNs += k.simulation().now() - s0;
    }

    sim::Task<> writeBack(kernel::Kernel &k, kernel::SegmentId seg,
                          kernel::PageIndex page) override
    {
        probe_->begin(Layer::Uio, "writeBack");
        co_await DefaultSegmentManager::writeBack(k, seg, page);
        probe_->end(probe_->writebackHost);
    }

  private:
    Probe *probe_;
};

struct Machine
{
    Machine(std::uint64_t seed, Probe &probe, bool traced)
        : st(hw::decstation5000_200()), rng(seed)
    {
        if (traced) {
            mgr = std::make_unique<TracedManager>(st.kern, &st.spcm,
                                                  st.server, st.registry,
                                                  probe);
        } else {
            mgr = std::make_unique<mgr::DefaultSegmentManager>(
                st.kern, &st.spcm, st.server, st.registry);
        }
        mgr->initNow(4096, kManagerFrames);
        // As in table_robustness: the UCDS is the manager of last
        // resort and the kernel's deadline/redelivery policy is on.
        st.kern.setDefaultManager(&st.ucds);
        kernel::ResiliencePolicy pol;
        pol.enabled = true;
        pol.faultDeadline = sim::msec(120);
        pol.maxRedeliveries = 3;
        pol.retryBackoff = sim::msec(1);
        st.kern.setResiliencePolicy(pol);
        for (int i = 0; i < kFiles; ++i) {
            uio::FileId f = st.server.createFile(
                "txn" + std::to_string(i), kFilePages * 4096);
            segs.push_back(kernel::runTask(st.sim, mgr->openFile(f)));
        }
    }

    apps::VppStack st;
    std::unique_ptr<mgr::DefaultSegmentManager> mgr;
    kernel::Process proc{"txn", 1};
    std::vector<kernel::SegmentId> segs;
    sim::Random rng;
    std::uint64_t txns = 0;
    std::uint64_t touches = 0;
};

sim::Task<>
runChunk(Machine &m, Probe &p)
{
    kernel::Kernel &k = m.st.kern;
    for (int t = 0; t < kTxnsPerChunk; ++t, ++m.txns) {
        const kernel::SegmentId seg = m.segs[m.txns % kFiles];
        for (int j = 0; j < kTouchesPerTxn; ++j) {
            const kernel::PageIndex page =
                static_cast<kernel::PageIndex>(m.rng.below(kFilePages));
            const kernel::AccessType a = m.rng.chance(kWriteFraction)
                                             ? kernel::AccessType::Write
                                             : kernel::AccessType::Read;
            const sim::SimTime s0 = m.st.sim.now();
            const std::uint64_t f0 = k.stats().faults;
            p.begin(Layer::Core, "touchSegment");
            co_await k.touchSegment(m.proc, seg, page, a);
            const bool faulted = k.stats().faults != f0;
            p.end(faulted ? p.faultHost : p.residentHost);
            ++m.touches;
            if (p.inPrefix) {
                const std::int64_t d = m.st.sim.now() - s0;
                p.touchSimNs += d;
                if (faulted) {
                    p.faultSimNs += d;
                    ++p.faultsTimed;
                }
            }
            const kernel::PageEntry *e = k.segment(seg).findPage(page);
            if (!e || (a == kernel::AccessType::Write &&
                       !(e->flags & kernel::flag::kDirty))) {
                ++p.badTouches;
            }
        }
    }
    const sim::SimTime c0 = m.st.sim.now();
    p.begin(Layer::Managers, "clockPass");
    const std::uint64_t reclaimed = co_await m.mgr->clockPass(kReclaimTarget);
    p.end(p.clockHost);
    if (p.inPrefix) {
        p.clockSim.push_back(m.st.sim.now() - c0);
        p.clockSimNs += p.clockSim.back();
    }
    if (reclaimed > kReclaimTarget)
        ++p.badPasses;
}

/** Counters read at the start and at the end of the prefix. */
struct Counters
{
    kernel::Kernel::Stats ks;
    std::uint64_t events = 0;
    sim::SimTime simNow = 0;
    std::uint64_t touches = 0;
    std::uint64_t reclaimed = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t grants = 0;
    std::uint64_t evictions = 0;
    std::uint64_t passes = 0;
    std::uint64_t diskReads = 0;
    std::uint64_t diskWrites = 0;

    static Counters of(Machine &m)
    {
        Counters c;
        c.ks = m.st.kern.stats();
        c.events = m.st.sim.eventsRun();
        c.simNow = m.st.sim.now();
        c.touches = m.touches;
        c.reclaimed = m.mgr->pagesReclaimed();
        c.writebacks = m.mgr->writeBacks();
        c.grants = m.st.spcm.grantsServed();
        c.evictions = m.mgr->replacementPolicy().stats().evictions;
        c.passes = m.mgr->replacementPolicy().stats().passes;
        c.diskReads = m.st.disk.reads();
        c.diskWrites = m.st.disk.writes();
        return c;
    }
};

sim::Task<>
runWindow(Machine &m, Probe &p)
{
    for (int c = 0; c < kChunksPerWindow; ++c)
        co_await runChunk(m, p);
}

sim::Task<>
warmUp(Machine &m, Probe &p)
{
    for (int c = 0; c < kWarmupChunks; ++c)
        co_await runChunk(m, p);
}

/** Build a machine and warm it up; returns the host CPU seconds taken. */
double
setUp(std::unique_ptr<Machine> &m, std::uint64_t seed, Probe &p, bool traced)
{
    const std::int64_t t0 = hostCpuNs();
    m = std::make_unique<Machine>(seed, p, traced);
    kernel::runTask(m->st.sim, warmUp(*m, p));
    return static_cast<double>(hostCpuNs() - t0) / 1e9;
}

} // namespace

Report
runVmFaultChurn(const Options &o)
{
    Report r;
    const bool traced = o.tracer != nullptr;
    const int prefixWindows = o.quick ? kQuickPrefixWindows : kPrefixWindows;
    // Recording buffers are sized before the heap baseline is taken, so
    // peak_heap_mb counts the simulator, not the benchmark.
    auto probe = std::make_unique<Probe>();
    auto scratch = std::make_unique<Probe>(); ///< for set-up samples
    probe->clockSim.reserve(
        static_cast<std::size_t>(prefixWindows) * kChunksPerWindow);
    std::vector<double> rates;
    rates.reserve(1 << 16);
    std::vector<double> setupS;
    setupS.reserve(kSetupRepeats);

    // Set-up: build the machine, open the files and warm the cache up to
    // steady state. The same set-up is sampled again, on a throwaway
    // machine, at kSetupRepeats points spread over the run, so one burst
    // of host interference cannot decide setup_s.
    const std::int64_t heapBase = sim::mem::threadCurrentBytes();
    std::unique_ptr<Machine> m;
    setupS.push_back(setUp(m, o.seed, *probe, traced));
    const std::int64_t begin = hostNowNs();
    const std::int64_t deadline =
        begin + static_cast<std::int64_t>(o.seconds * 1e9);
    const std::int64_t setupEvery =
        static_cast<std::int64_t>(o.seconds * 1e9) / kSetupRepeats;

    // The timed run; warm-up stays untraced.
    probe->tracer = o.tracer;
    probe->inPrefix = true;
    const Counters s = Counters::of(*m);
    Counters e;
    std::int64_t peak = 0;
    std::int64_t hostNs = 0;
    bool ran = true;
    for (int w = 0;; ++w) {
        if (w == prefixWindows) {
            probe->inPrefix = false;
            e = Counters::of(*m);
        }
        const std::int64_t now = hostNowNs();
        if (w >= prefixWindows && now >= deadline)
            break;
        if (static_cast<int>(setupS.size()) < kSetupRepeats &&
            now - begin >= setupEvery * static_cast<std::int64_t>(setupS.size())) {
            std::unique_ptr<Machine> spare;
            setupS.push_back(setUp(spare, o.seed, *scratch, false));
            spare.reset();
        }
        const std::int64_t cpu0 = hostCpuNs();
        sim::mem::resetThreadPeak();
        probe->begin(Layer::Sim, "Simulation::run");
        try {
            kernel::runTask(m->st.sim, runWindow(*m, *probe));
        } catch (const std::exception &ex) {
            ran = false;
            r.check(false, std::string("touch loop threw: ") + ex.what());
        }
        probe->end();
        const std::int64_t dt = hostCpuNs() - cpu0;
        peak = std::max(peak, sim::mem::threadPeakBytes() - heapBase);
        if (!ran)
            break;
        hostNs += dt;
        rates.push_back(static_cast<double>(kChunksPerWindow * kTxnsPerChunk *
                                            kTouchesPerTxn) /
                        (static_cast<double>(dt) / 1e9));
    }
    const std::uint64_t events = m->st.sim.eventsRun() - s.events;
    const double peakMb = static_cast<double>(peak) / 1e6;

    r.attempted = m->touches;
    r.completed = ran ? m->touches : 0;
    r.timedOps = m->touches - s.touches;
    std::string why;
    r.check(m->st.kern.checkFrameInvariant(&why),
            "frame invariant: " + why);
    r.check(probe->badTouches == 0, "every touch leaves its page resident "
                                    "(and dirty after a write)");
    r.check(probe->badPasses == 0, "clockPass reclaims at most its target");
    if (!ran)
        return r;

    const Probe &p = *probe;
    const double touches = static_cast<double>(e.touches - s.touches);
    const double simNs = static_cast<double>(e.simNow - s.simNow);
    const kernel::Kernel::Stats &ks0 = s.ks;
    const kernel::Kernel::Stats &ks1 = e.ks;
    const double faults = static_cast<double>(ks1.faults - ks0.faults);
    const auto delta = [](std::uint64_t a, std::uint64_t b) {
        return static_cast<double>(b - a);
    };

    r.e2e("setup_s", median(setupS), "s");
    r.e2e("ops_per_host_s", quantile(rates, kHostRateQuantile), "1/s");
    r.e2e("peak_heap_mb", peakMb, "MB");
    r.e2e("sim_latency_avg_us",
          static_cast<double>(p.touchSimNs) / touches / 1e3, "us");
    r.e2e("sim_ops_per_s", touches / (simNs / 1e9), "1/s");

    r.pinned("sim.events", delta(s.events, e.events), "count");
    r.layer("sim.host_ns_per_event",
            static_cast<double>(hostNs) / static_cast<double>(events),
            "ns");
    r.pinned("core.faults", faults, "count");
    r.pinned("core.fault_ratio", faults / touches, "ratio");
    r.pinned("core.migrate_calls",
             delta(ks0.migrateCalls, ks1.migrateCalls), "count");
    r.pinned("core.pages_migrated",
             delta(ks0.pagesMigrated, ks1.pagesMigrated), "count");
    const double hits = delta(ks0.resolveHits, ks1.resolveHits);
    const double misses = delta(ks0.resolveMisses, ks1.resolveMisses);
    r.pinned("core.resolve_hit_ratio", ratio(hits, hits + misses), "ratio");
    r.pinned("core.fault_sim_us_avg",
             ratio(static_cast<double>(p.faultSimNs),
                   static_cast<double>(p.faultsTimed)) / 1e3,
             "us");
    r.pinned("core.fault_sim_samples", static_cast<double>(p.faultsTimed),
             "count");
    r.pinned("core.fault_sim_share",
             static_cast<double>(p.faultSimNs) / simNs, "ratio");
    r.pinned("ipc.crossings", delta(ks0.managerCalls, ks1.managerCalls),
             "count");
    std::vector<double> clockMs;
    for (std::int64_t d : p.clockSim)
        clockMs.push_back(static_cast<double>(d) / 1e6);
    r.pinned("managers.clockpass_sim_ms_p50", median(clockMs), "ms");
    r.pinned("managers.clockpass_sim_samples",
             static_cast<double>(clockMs.size()), "count");
    r.pinned("managers.clockpass_sim_share",
             static_cast<double>(p.clockSimNs) / simNs, "ratio");
    r.pinned("managers.pages_reclaimed", delta(s.reclaimed, e.reclaimed),
             "count");
    r.pinned("managers.writebacks", delta(s.writebacks, e.writebacks),
             "count");
    r.pinned("managers.spcm_grants", delta(s.grants, e.grants), "count");
    r.pinned("policy.evictions", delta(s.evictions, e.evictions), "count");
    r.pinned("policy.passes", delta(s.passes, e.passes), "count");
    r.pinned("hw.disk_reads", delta(s.diskReads, e.diskReads), "count");
    r.pinned("hw.disk_writes", delta(s.diskWrites, e.diskWrites), "count");

    if (o.tracer) {
        r.timing("core.touch_resident_host_ns_p50",
                 p.residentHost.quantile(0.5), "ns",
                 "core.touch_resident_samples", p.residentHost.count());
        r.layer("core.touch_resident_host_ns_p99",
                p.residentHost.quantile(0.99), "ns");
        r.timing("core.touch_fault_host_ns_p50", p.faultHost.quantile(0.5),
                 "ns", "core.touch_fault_samples", p.faultHost.count());
        r.layer("core.touch_fault_host_ns_p99", p.faultHost.quantile(0.99),
                "ns");
        r.timing("managers.clockpass_host_ms_p50",
                 p.clockHost.quantile(0.5) / 1e6, "ms",
                 "managers.clockpass_host_samples", p.clockHost.count());
        r.timing("uio.fill_host_us_p50", p.fillHost.quantile(0.5) / 1e3,
                 "us", "uio.fill_host_samples", p.fillHost.count());
        r.pinned("uio.fill_sim_share",
                 static_cast<double>(p.fillSimNs) / simNs, "ratio");
        r.timing("uio.writeback_host_us_p50",
                 p.writebackHost.quantile(0.5) / 1e3, "us",
                 "uio.writeback_host_samples", p.writebackHost.count());
    }
    return r;
}

} // namespace e2e
