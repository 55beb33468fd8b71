#include "trace.h"

#include <bit>
#include <cstdio>
#include <stdexcept>

namespace e2e {

const char *
layerName(Layer l)
{
    static const char *const kNames[kLayers] = {
        "sim", "hw", "ipc", "core", "uio", "policy", "managers", "db"};
    return kNames[static_cast<int>(l)];
}

int
LogHistogram::bucketOf(std::uint64_t v)
{
    if (v < kSub)
        return static_cast<int>(v);
    const int top = std::bit_width(v) - 1; // >= 6
    const int shift = top - 6;
    const int sub = static_cast<int>((v >> shift) & (kSub - 1));
    return (shift + 1) * kSub + sub;
}

double
LogHistogram::lowOf(int b)
{
    if (b < kSub)
        return b;
    const int shift = b / kSub - 1;
    return static_cast<double>(
        (std::uint64_t{kSub} + static_cast<std::uint64_t>(b % kSub))
        << shift);
}

double
LogHistogram::widthOf(int b)
{
    return b < kSub ? 1.0
                    : static_cast<double>(std::uint64_t{1} << (b / kSub - 1));
}

void
LogHistogram::add(std::int64_t v)
{
    ++counts_[bucketOf(v > 0 ? static_cast<std::uint64_t>(v) : 0)];
    ++n_;
}

double
LogHistogram::quantile(double q) const
{
    if (n_ == 0)
        return 0.0;
    // Find the bucket holding rank q*n, then place the value inside the
    // bucket by the rank's position among the bucket's samples.
    const double rank = q * static_cast<double>(n_);
    double seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
        if (counts_[b] == 0)
            continue;
        const double c = static_cast<double>(counts_[b]);
        if (seen + c >= rank)
            return lowOf(b) + widthOf(b) * (rank - seen) / c;
        seen += c;
    }
    return lowOf(kBuckets - 1);
}

Tracer::Tracer(std::size_t keep_spans)
    : keep_(keep_spans), origin_(hostNowNs())
{
    stack_.reserve(16);
    spans_.reserve(keep_spans);
}

void
Tracer::begin(Layer layer, const char *name)
{
    const std::int64_t now = hostNowNs();
    std::int64_t kept = -1;
    if (spans_.size() < keep_) {
        kept = static_cast<std::int64_t>(spans_.size());
        spans_.push_back(
            {name, layer, now, now, stack_.empty() ? -1 : stack_.back().kept});
    } else {
        ++dropped_;
    }
    stack_.push_back({now, 0, layer, name, kept});
}

std::int64_t
Tracer::end()
{
    if (stack_.empty())
        throw std::logic_error("Tracer::end without an open span");
    const std::int64_t now = hostNowNs();
    const Open o = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = now - o.start;
    LayerTotals &t = totals_[static_cast<int>(o.layer)];
    ++t.spans;
    t.totalNs += dur;
    t.selfNs += dur - o.childNs;
    if (!stack_.empty())
        stack_.back().childNs += dur;
    if (o.kept >= 0)
        spans_[static_cast<std::size_t>(o.kept)].end = now;
    return dur;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                     "\"args\":{\"id\":%zu,\"parent\":%lld}}\n",
                     i ? "," : "", s.name, layerName(s.layer),
                     static_cast<double>(s.start - origin_) / 1e3,
                     static_cast<double>(s.end - s.start) / 1e3, i,
                     static_cast<long long>(s.parent));
    }
    std::fprintf(f, "],\"otherData\":{\"spansDropped\":%llu}}\n",
                 static_cast<unsigned long long>(dropped_));
    return std::fclose(f) == 0;
}

} // namespace e2e
