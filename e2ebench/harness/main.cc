/**
 * @file
 * End-to-end benchmark for the V++ simulator.
 *
 *   e2ebench --workload NAME --seed N --seconds S --trace 0|1
 *            [--trace-out FILE]
 *   e2ebench --self-test
 *
 * With --trace 0 it prints the end-to-end metrics; with --trace 1 it
 * runs the workload untraced, then again with host-time spans around
 * every call into a layer, checks the two agree on every simulated
 * value and prints the per-layer metrics. The last line of stdout is
 * one JSON object: {"correct", "attempted", "failed", "metrics"}. The
 * exit code is nonzero when any correctness check failed.
 *
 * --self-test runs each workload at self-test sizes twice at 1 engine
 * worker (the default), once at 2 and once traced, and fails unless
 * every simulated metric and per-layer count is identical across all
 * four.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <malloc.h>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "workloads.h"

namespace e2e {

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double idx = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(idx);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = idx - static_cast<double>(lo);
    return v[lo] * (1.0 - frac) + v[hi] * frac;
}

std::uint64_t
episodeSeed(std::uint64_t seed, std::uint64_t episode)
{
    // splitmix64 over (seed, episode): neighbouring seeds and episodes
    // give unrelated streams.
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (episode + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

namespace {

/**
 * Every per-layer metric the benchmark defines, in print order. A
 * workload that does not reach a layer reports 0 for it.
 */
const std::vector<std::pair<std::string, std::string>> &
perLayerCatalog()
{
    static const std::vector<std::pair<std::string, std::string>> kCatalog = {
        {"sim.events", "count"},
        {"sim.host_ns_per_event", "ns"},
        {"sim.epochs", "count"},
        {"sim.cross_events", "count"},
        {"sim.self_ns_per_op", "ns"},
        {"sim.spans", "count"},
        {"core.touch_resident_host_ns_p50", "ns"},
        {"core.touch_resident_host_ns_p99", "ns"},
        {"core.touch_resident_samples", "count"},
        {"core.touch_fault_host_ns_p50", "ns"},
        {"core.touch_fault_host_ns_p99", "ns"},
        {"core.touch_fault_samples", "count"},
        {"core.fault_sim_us_avg", "us"},
        {"core.fault_sim_samples", "count"},
        {"core.fault_sim_share", "ratio"},
        {"core.faults", "count"},
        {"core.fault_ratio", "ratio"},
        {"core.migrate_calls", "count"},
        {"core.pages_migrated", "count"},
        {"core.resolve_hit_ratio", "ratio"},
        {"core.probe_hit_ratio", "ratio"},
        {"core.kernel_trips", "count"},
        {"core.faults_per_batch", "ratio"},
        {"core.self_ns_per_op", "ns"},
        {"core.spans", "count"},
        {"ipc.crossings", "count"},
        {"managers.clockpass_host_ms_p50", "ms"},
        {"managers.clockpass_host_samples", "count"},
        {"managers.clockpass_sim_ms_p50", "ms"},
        {"managers.clockpass_sim_samples", "count"},
        {"managers.clockpass_sim_share", "ratio"},
        {"managers.pages_reclaimed", "count"},
        {"managers.writebacks", "count"},
        {"managers.spcm_grants", "count"},
        {"managers.self_ns_per_op", "ns"},
        {"managers.spans", "count"},
        {"policy.evictions", "count"},
        {"policy.passes", "count"},
        {"uio.fill_host_us_p50", "us"},
        {"uio.fill_host_samples", "count"},
        {"uio.fill_sim_share", "ratio"},
        {"uio.writeback_host_us_p50", "us"},
        {"uio.writeback_host_samples", "count"},
        {"uio.self_ns_per_op", "ns"},
        {"uio.spans", "count"},
        {"hw.disk_reads", "count"},
        {"hw.disk_writes", "count"},
        {"db.lock_wait_s", "s"},
        {"db.remote_avg_ms", "ms"},
        {"db.cpu_utilization", "ratio"},
        {"db.self_ns_per_op", "ns"},
        {"db.spans", "count"},
        {"trace.untraced_ops_per_host_s", "1/s"},
        {"trace.traced_ops_per_host_s", "1/s"},
        {"trace.overhead_ratio", "ratio"},
    };
    return kCatalog;
}

Report
runWorkload(const Options &o)
{
    if (o.workload == "vm_fault_churn")
        return runVmFaultChurn(o);
    if (o.workload == "shared_kernel_hot")
        return runSharedKernelHot(o);
    if (o.workload == "db_cluster")
        return runDbCluster(o);
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
}

double
find(const std::vector<Metric> &ms, const std::string &name)
{
    for (const Metric &m : ms)
        if (m.name == name)
            return m.value;
    return 0.0;
}

/** Names whose values differ between @p ref and @p other. */
std::vector<std::string>
signatureMismatches(const Report &ref, const Report &other)
{
    std::map<std::string, double> got(other.signature.begin(),
                                      other.signature.end());
    std::vector<std::string> bad;
    for (const auto &[name, v] : ref.signature) {
        auto it = got.find(name);
        if (it == got.end() || it->second != v)
            bad.push_back(name);
    }
    return bad;
}

/**
 * The per-layer view of a traced pass: its own metrics, self time per
 * operation for each spanned layer, and the tracing overhead against
 * the untraced pass.
 */
std::vector<Metric>
perLayerView(const Report &plain, const Report &traced, const Tracer &t)
{
    std::map<std::string, std::string> units(perLayerCatalog().begin(),
                                             perLayerCatalog().end());
    std::map<std::string, double> have;
    for (const Metric &m : traced.perLayer) {
        if (units[m.name] != m.unit)
            throw std::logic_error("per-layer metric " + m.name +
                                   " is not in the catalog as " + m.unit);
        have[m.name] = m.value;
    }
    const double ops = static_cast<double>(std::max<std::uint64_t>(
        traced.timedOps, 1));
    for (Layer l : {Layer::Sim, Layer::Core, Layer::Managers, Layer::Uio,
                    Layer::Db}) {
        const std::string n = layerName(l);
        have[n + ".self_ns_per_op"] =
            static_cast<double>(t.totals(l).selfNs) / ops;
        have[n + ".spans"] = static_cast<double>(t.totals(l).spans);
    }
    const double untraced = find(plain.endToEnd, "ops_per_host_s");
    const double withTrace = find(traced.endToEnd, "ops_per_host_s");
    have["trace.untraced_ops_per_host_s"] = untraced;
    have["trace.traced_ops_per_host_s"] = withTrace;
    have["trace.overhead_ratio"] = ratio(untraced, withTrace);

    std::vector<Metric> out;
    for (const auto &[name, unit] : perLayerCatalog()) {
        auto it = have.find(name);
        out.push_back({name, it == have.end() ? 0.0 : it->second, unit});
    }
    return out;
}

void
printResult(const std::vector<Metric> &ms, const Report &r)
{
    const std::uint64_t failed = r.failed();
    for (const std::string &c : r.failedChecks)
        std::printf("CHECK FAILED: %s\n", c.c_str());
    for (const Metric &m : ms)
        std::printf("  %-34s %18.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(std::max<std::uint64_t>(
                    r.attempted, 1)),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < ms.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", ms[i].name.c_str(), ms[i].value,
                    ms[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

/** 1 - failed / attempted, where failed counts operations not completed
 *  plus failed correctness checks. */
double
successRatio(const Report &r)
{
    if (r.attempted == 0)
        return 0.0;
    return std::max(0.0, 1.0 - static_cast<double>(r.failed()) /
                                   static_cast<double>(r.attempted));
}

constexpr std::size_t kKeptSpans = 200000;
/// glibc's largest mmap threshold (32 MiB on 64-bit): bigger blocks are
/// still mapped, everything else comes from the reusable heap.
constexpr int kMallocMmapThreshold = 32 << 20;
/// Never trim the heap top back to the kernel below 1 GiB.
constexpr int kMallocTrimThreshold = 1 << 30;

int
runOnce(const Options &o, bool trace, const std::string &trace_out)
{
    // A traced run splits the budget between its untraced and traced
    // passes, so it lasts as long as an untraced run.
    Options po = o;
    if (trace)
        po.seconds = o.seconds / 2;
    Report plain = runWorkload(po);
    if (!trace) {
        std::vector<Metric> ms = plain.endToEnd;
        ms.push_back({"success_ratio", successRatio(plain), "ratio"});
        printResult(ms, plain);
        return plain.failed() == 0 ? 0 : 1;
    }
    Tracer tracer(kKeptSpans);
    Options to = po;
    to.tracer = &tracer;
    Report traced = runWorkload(to);
    for (const std::string &n : signatureMismatches(plain, traced))
        traced.check(false, "traced run changed simulated value " + n);
    for (const std::string &c : plain.failedChecks)
        traced.check(false, "untraced pass: " + c);
    traced.check(plain.completed == plain.attempted,
                 "untraced pass completed every operation");
    if (!trace_out.empty() && !tracer.writeChromeTrace(trace_out))
        std::fprintf(stderr, "e2ebench: cannot write %s\n", trace_out.c_str());
    printResult(perLayerView(plain, traced, tracer), traced);
    return traced.failed() == 0 ? 0 : 1;
}

int
selfTest()
{
    int bad = 0;
    for (const char *w : {"vm_fault_churn", "shared_kernel_hot", "db_cluster"}) {
        const int before = bad;
        Options o;
        o.workload = w;
        o.seed = 20261016;
        o.seconds = 0;
        o.quick = true;
        Report a = runWorkload(o);
        Report b = runWorkload(o);
        Options two = o;
        two.workers = 2;
        Report c = runWorkload(two);
        Tracer tracer(1024);
        Options to = o;
        to.tracer = &tracer;
        Report t = runWorkload(to);
        struct Pair
        {
            const char *what;
            const Report *other;
        };
        for (Pair p : {Pair{"repeat run", &b}, Pair{"2 engine workers", &c},
                       Pair{"traced run", &t}}) {
            std::vector<std::string> diff = signatureMismatches(a, *p.other);
            for (const std::string &n : diff)
                std::printf("FAIL %s: %s differs on %s\n", w, n.c_str(), p.what);
            bad += static_cast<int>(diff.size());
        }
        for (const Report *r : {&a, &b, &c, &t}) {
            for (const std::string &chk : r->failedChecks) {
                std::printf("FAIL %s: %s\n", w, chk.c_str());
                ++bad;
            }
        }
        std::printf("%s: %zu pinned values %s\n", w, a.signature.size(),
                    bad == before ? "identical across repeat, 1 vs 2 "
                                    "workers and traced runs"
                                  : "DIFFER (see above)");
    }
    std::printf(bad ? "self-test FAILED\n" : "self-test passed\n");
    return bad ? 1 : 0;
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "e2ebench: %s\nusage: e2ebench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE]\n"
                 "       e2ebench --self-test\n",
                 msg);
    std::exit(2);
}

} // namespace

} // namespace e2e

int
main(int argc, char **argv)
{
    using namespace e2e;
    // Keep freed heap in the process instead of handing it back to the
    // kernel: every episode builds and frees a whole machine, and
    // re-faulting fresh pages each time made episode host times both
    // slower and noisier. Simulated results and peak_heap_mb (counted by
    // sim::mem, not from RSS) are unaffected.
    mallopt(M_MMAP_THRESHOLD, kMallocMmapThreshold);
    mallopt(M_TRIM_THRESHOLD, kMallocTrimThreshold);
    Options o;
    bool trace = false;
    bool haveWorkload = false;
    std::string traceOut;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--self-test")
            return selfTest();
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        char *endp = nullptr;
        if (a == "--workload") {
            o.workload = v;
            haveWorkload = true;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v, &endp, 10);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v, &endp);
        } else if (a == "--trace") {
            trace = std::strcmp(v, "0") != 0;
        } else if (a == "--trace-out") {
            traceOut = v;
        } else {
            usage(("unknown argument " + a).c_str());
        }
        if (endp && *endp)
            usage(("bad value for " + a).c_str());
    }
    if (!haveWorkload)
        usage("--workload is required");
    if (!(o.seconds >= 0))
        usage("--seconds must be >= 0");
    try {
        return runOnce(o, trace, traceOut);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "e2ebench: %s\n", e.what());
        return 1;
    }
}
