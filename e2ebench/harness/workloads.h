/**
 * @file
 * The benchmark's workloads and the report each run produces.
 */

#ifndef E2EBENCH_WORKLOADS_H
#define E2EBENCH_WORKLOADS_H

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "trace.h"

namespace e2e {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;  ///< host-time budget of the timed run
    unsigned workers = 1;   ///< engine worker threads (sharded studies)
    bool quick = false;     ///< self-test sizes: short, same shapes
    Tracer *tracer = nullptr; ///< non-null for the traced pass
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/**
 * What one pass of a workload measured. `signature` holds every value
 * that must repeat exactly for a given seed: the simulated metrics and
 * the per-layer counts, all taken over the pass's fixed-size
 * deterministic prefix.
 */
struct Report
{
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;
    std::vector<std::pair<std::string, double>> signature;
    std::uint64_t attempted = 0;
    std::uint64_t completed = 0;
    std::uint64_t timedOps = 0; ///< operations in the timed run
    std::vector<std::string> failedChecks;

    void e2e(const std::string &n, double v, const std::string &u)
    {
        endToEnd.push_back({n, v, u});
        if (n.rfind("sim_", 0) == 0)
            signature.emplace_back(n, v);
    }
    void layer(const std::string &n, double v, const std::string &u)
    {
        perLayer.push_back({n, v, u});
    }
    /** A per-layer count or simulated value: also pinned as signature. */
    void pinned(const std::string &n, double v, const std::string &u)
    {
        layer(n, v, u);
        signature.emplace_back(n, v);
    }
    /** A host timing with its sample count. */
    void timing(const std::string &n, double v, const std::string &u,
                const std::string &count_name, std::uint64_t samples)
    {
        layer(n, v, u);
        layer(count_name, static_cast<double>(samples), "count");
    }
    void check(bool ok, const std::string &what)
    {
        if (!ok)
            failedChecks.push_back(what);
    }
    /** Operations not completed plus failed correctness checks. */
    std::uint64_t failed() const
    {
        return attempted - std::min(completed, attempted) +
               failedChecks.size();
    }
};

/** Linearly interpolated quantile, q in [0, 1]; 0 for no samples. */
double quantile(std::vector<double> v, double q);

inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/**
 * Host rates are the 90th percentile of per-window (or per-episode)
 * rates: other tenants of the host only ever slow a window down, so an
 * upper quantile tracks the simulator's own speed far more steadily
 * than the median does.
 */
constexpr double kHostRateQuantile = 0.9;

/** a / b, or 0 when b is 0. */
inline double
ratio(double a, double b)
{
    return b > 0 ? a / b : 0.0;
}

/** Independent per-episode seed derived from the run seed. */
std::uint64_t episodeSeed(std::uint64_t seed, std::uint64_t episode);

Report runVmFaultChurn(const Options &o);
Report runSharedKernelHot(const Options &o);
Report runDbCluster(const Options &o);

} // namespace e2e

#endif // E2EBENCH_WORKLOADS_H
