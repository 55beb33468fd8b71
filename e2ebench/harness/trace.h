/**
 * @file
 * Host-time tracing for the end-to-end benchmark.
 *
 * The benchmark records a span around every public call it makes into
 * a layer of the simulator (touchSegment into core, clockPass into
 * managers, fillPage/writeBack into uio, a study into db, the event
 * loop into sim). Spans nest: a layer's self time is its span minus
 * the time its child spans cover. Nothing here touches the simulator,
 * so a traced run schedules exactly the events an untraced one does.
 */

#ifndef E2EBENCH_TRACE_H
#define E2EBENCH_TRACE_H

#include <array>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <string>
#include <vector>

namespace e2e {

/** The simulator's modules, used as layer names. */
enum class Layer : std::uint8_t { Sim, Hw, Ipc, Core, Uio, Policy, Managers, Db };
constexpr int kLayers = 8;
const char *layerName(Layer l);

inline std::int64_t
hostNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * CPU time consumed by the whole process (every thread), in ns. Unlike
 * wall time it stands still while the host runs other tenants, so rates
 * and set-up times taken over it are steadier on a shared machine.
 * Wall time still bounds how long a run lasts.
 */
inline std::int64_t
hostCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/**
 * Log-bucketed histogram of non-negative integers: exact below 64,
 * then 64 sub-buckets per power of two (relative error under 1.6 %).
 * Fixed size, so recording never allocates.
 */
class LogHistogram
{
  public:
    void add(std::int64_t v);
    std::uint64_t count() const { return n_; }
    /**
     * Value at quantile @p q in [0, 1], interpolated by rank inside its
     * bucket; 0 if empty.
     */
    double quantile(double q) const;

  private:
    static constexpr int kSub = 64;
    static constexpr int kBuckets = 64 * kSub;
    static int bucketOf(std::uint64_t v);
    /** Lowest value in bucket @p b and the bucket's width. */
    static double lowOf(int b);
    static double widthOf(int b);

    std::array<std::uint64_t, kBuckets> counts_{};
    std::uint64_t n_ = 0;
};

class Tracer
{
  public:
    /** Keep at most @p keep_spans raw spans for the trace file. */
    explicit Tracer(std::size_t keep_spans);

    /** Open a span; spans must close in reverse order of opening. */
    void begin(Layer layer, const char *name);
    /** Close the innermost span; returns its host duration in ns. */
    std::int64_t end();

    struct LayerTotals
    {
        std::uint64_t spans = 0;
        std::int64_t totalNs = 0;
        std::int64_t selfNs = 0;
    };
    const LayerTotals &totals(Layer l) const
    {
        return totals_[static_cast<int>(l)];
    }

    /** Write the kept spans as Chrome trace-event JSON. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct Open
    {
        std::int64_t start;
        std::int64_t childNs;
        Layer layer;
        const char *name;
        std::int64_t kept; ///< index into spans_, or -1
    };
    struct Span
    {
        const char *name;
        Layer layer;
        std::int64_t start;
        std::int64_t end;
        std::int64_t parent; ///< index into spans_, or -1
    };

    std::vector<Open> stack_;
    std::vector<Span> spans_;
    std::size_t keep_;
    std::uint64_t dropped_ = 0;
    std::int64_t origin_;
    std::array<LayerTotals, kLayers> totals_{};
};

} // namespace e2e

#endif // E2EBENCH_TRACE_H
