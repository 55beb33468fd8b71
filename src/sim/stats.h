/**
 * @file
 * Measurement helpers: sample statistics and percentile tracking.
 *
 * Benchmarks report the same aggregates the paper does: means (Table 1,
 * Table 2), counts (Table 3) and average/worst-case response times
 * (Table 4).
 */

#ifndef VPP_SIM_STATS_H
#define VPP_SIM_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace vpp::sim {

/** Running mean/min/max/stddev over double-valued samples. */
class SampleStats
{
  public:
    void
    add(double x)
    {
        ++n_;
        sum_ += x;
        sumsq_ += x * x;
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }

    std::uint64_t count() const { return n_; }
    double sum() const { return sum_; }
    double mean() const { return n_ ? sum_ / n_ : 0.0; }
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }

    double
    stddev() const
    {
        if (n_ < 2)
            return 0.0;
        double m = mean();
        double var = (sumsq_ - n_ * m * m) / (n_ - 1);
        return var > 0 ? std::sqrt(var) : 0.0;
    }

    void
    reset()
    {
        *this = SampleStats();
    }

    /**
     * Fold another accumulator into this one. Sharded runs collect
     * per-shard stats and merge them in shard-index order, which
     * keeps the floating-point sums bit-identical at any worker
     * count (addition order is fixed by the merge order, never by
     * thread timing).
     */
    void
    merge(const SampleStats &o)
    {
        n_ += o.n_;
        sum_ += o.sum_;
        sumsq_ += o.sumsq_;
        min_ = std::min(min_, o.min_);
        max_ = std::max(max_, o.max_);
    }

  private:
    std::uint64_t n_ = 0;
    double sum_ = 0.0;
    double sumsq_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Stores all samples to answer percentile queries exactly. Response-time
 * distributions in the study are small enough (tens of thousands of
 * transactions) that this is the right tool. A percentile query selects
 * its two order statistics in place rather than sorting, so it may
 * reorder the stored samples.
 */
class Distribution
{
  public:
    void
    add(double x)
    {
        samples_.push_back(x);
        stats_.add(x);
    }

    /** Make room for @p n samples in all, so a merge copies once. */
    void reserve(std::size_t n) { samples_.reserve(n); }

    std::uint64_t count() const { return stats_.count(); }
    double mean() const { return stats_.mean(); }
    double min() const { return stats_.min(); }
    double max() const { return stats_.max(); }
    double stddev() const { return stats_.stddev(); }

    /**
     * Exact p-quantile, p in [0, 1]: the sorted samples at lo and lo + 1
     * interpolated, found by selection. The sample at lo is the lo-th
     * order statistic and the minimum above it the next one, so the
     * result equals a sort's bit for bit.
     */
    double
    percentile(double p) const
    {
        if (samples_.empty())
            return 0.0;
        double idx = p * (samples_.size() - 1);
        std::size_t lo = static_cast<std::size_t>(idx);
        const auto at = samples_.begin() + lo;
        std::nth_element(samples_.begin(), at, samples_.end());
        const double next =
            at + 1 == samples_.end() ? *at
                                     : *std::min_element(at + 1,
                                                         samples_.end());
        double frac = idx - lo;
        return *at * (1.0 - frac) + next * frac;
    }

    /** The samples, in recorded order until a percentile query. */
    const std::vector<double> &
    samples() const
    {
        return samples_;
    }

    /**
     * Append another distribution's samples in their stored order.
     * Merging per-shard distributions in shard-index order keeps
     * percentiles and means bit-identical at any worker count.
     */
    void
    merge(const Distribution &o)
    {
        samples_.insert(samples_.end(), o.samples_.begin(),
                        o.samples_.end());
        stats_.merge(o.stats_);
    }

    void
    reset()
    {
        samples_.clear();
        stats_.reset();
    }

  private:
    mutable std::vector<double> samples_;
    SampleStats stats_;
};

} // namespace vpp::sim

#endif // VPP_SIM_STATS_H
