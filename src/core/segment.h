/**
 * @file
 * Segments and bound regions (paper §2.1, Figure 1).
 *
 * A segment is a variable-size range of pages. Pages either hold a page
 * frame directly (an *own* page) or are covered by a bound region that
 * forwards references to another segment, optionally copy-on-write.
 * Own pages override bindings: installing a frame at a bound page (the
 * copy-on-write resolution) shadows the binding for that page.
 *
 * Pages live in a two-level sparse table (page_table.h) with O(1)
 * lookup; bindings are kept sorted by start page so the covering
 * region is found by binary search.
 */

#ifndef VPP_CORE_SEGMENT_H
#define VPP_CORE_SEGMENT_H

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/page_table.h"
#include "core/types.h"
#include "hw/types.h"

namespace vpp::kernel {

class SegmentManager;

/** A bound region forwarding a page range to another segment. */
struct Binding
{
    PageIndex start = 0;       ///< first covered page in this segment
    std::uint64_t pages = 0;   ///< pages covered
    SegmentId target = kInvalidSegment;
    PageIndex targetStart = 0; ///< first page in the target
    std::uint32_t prot = 0;    ///< max access allowed through the region
    bool copyOnWrite = false;

    bool
    covers(PageIndex p) const
    {
        return p >= start && p < start + pages;
    }
};

/** Result of resolving a segment reference (exposed for tests). */
struct Resolution
{
    bool present = false;      ///< a frame-backed entry was found
    SegmentId seg = kInvalidSegment;  ///< entry owner / fault target
    PageIndex page = 0;
    PageEntry *entry = nullptr;
    std::uint32_t regionProt = flag::kProtMask; ///< AND of region prots
    bool viaCow = false;
    SegmentId cowSeg = kInvalidSegment; ///< where a private copy goes
    PageIndex cowPage = 0;
};

/**
 * Longest resolution chain a per-CPU cache entry will record. Deeper
 * chains (up to the kernel's binding-depth limit) still resolve, they
 * are just never cached per-CPU.
 */
inline constexpr std::uint32_t kResolveChainMax = 4;

/**
 * A resolution by value: everything a CPU needs to satisfy a mapped
 * reference locally, with no pointers into kernel structures. Shards
 * other than the kernel's home shard hold these in per-CPU caches, so
 * the hot resolve path never dereferences cross-shard state — the
 * entry carries the frame, flags and region protection outright.
 *
 * Validity is per-segment: `chain` records every segment the
 * resolution walked through (origin, intermediate bindings, final
 * owner) and `epochSum` the sum of their mutation epochs at fill
 * time. Epochs only grow, so the sum is unchanged iff no chain
 * segment was mutated — a migrate into an unrelated segment leaves
 * the entry live, which is what lets many CPUs fault concurrently
 * without flushing each other's caches.
 */
struct CpuResolution
{
    SegmentId originSeg = kInvalidSegment; ///< cache key
    PageIndex originPage = 0;              ///< cache key

    bool present = false;
    SegmentId seg = kInvalidSegment; ///< entry owner / fault target
    PageIndex page = 0;
    hw::FrameId frame = 0;
    std::uint32_t flags = 0;
    std::uint32_t regionProt = flag::kProtMask;
    bool viaCow = false;
    SegmentId cowSeg = kInvalidSegment;
    PageIndex cowPage = 0;

    std::uint32_t chainLen = 0; ///< 0 == never valid (empty slot)
    SegmentId chain[kResolveChainMax] = {};
    std::uint64_t epochSum = 0;
};

/**
 * Per-CPU two-level hashed cache of CpuResolution values, keyed by
 * (segment, page) and validated against the per-segment epoch table.
 * An open-addressed, direct-mapped primary array is backed by a smaller
 * victim array, in the style of shadowOS's page cache: a primary miss
 * probes the victim slot, and a victim hit promotes the entry back to
 * primary. Storage is allocated on the first store. One instance per
 * simulated CPU; during a sharded run each instance is probed and
 * filled only by the shard that owns its CPU, so it needs no locking.
 */
class CpuResolveCache
{
  public:
    const CpuResolution *
    lookup(SegmentId seg, PageIndex page,
           const std::vector<std::uint64_t> &epochs)
    {
        if (!slots_)
            return nullptr;
        CpuResolution &e = slots_[h1(seg, page)];
        if (matches(e, seg, page, epochs))
            return &e;
        CpuResolution &v = slots_[kPrimary + h2(seg, page)];
        if (matches(v, seg, page, epochs)) {
            // Victim hit: promote to primary, demote the displaced
            // entry into the victim slot it hashes to (here).
            std::swap(e, v);
            return &e;
        }
        return nullptr;
    }

    void
    store(const CpuResolution &r)
    {
        if (!slots_) {
            // Value-initialised: chainLen 0 never matches.
            slots_ =
                std::make_unique<CpuResolution[]>(kPrimary + kSecondary);
        }
        CpuResolution &e = slots_[h1(r.originSeg, r.originPage)];
        if (e.chainLen != 0 &&
            (e.originSeg != r.originSeg || e.originPage != r.originPage))
            slots_[kPrimary + h2(e.originSeg, e.originPage)] = e;
        e = r;
    }

  private:
    static constexpr std::uint32_t kPrimary = 128;
    static constexpr std::uint32_t kSecondary = 64;

    static bool
    matches(const CpuResolution &e, SegmentId seg, PageIndex page,
            const std::vector<std::uint64_t> &epochs)
    {
        if (e.chainLen == 0 || e.originSeg != seg ||
            e.originPage != page)
            return false;
        // Re-sum the chain segments' epochs: epochs are monotonic, so
        // equality means no chain segment was mutated since the fill.
        std::uint64_t sum = 0;
        for (std::uint32_t i = 0; i < e.chainLen; ++i) {
            SegmentId s = e.chain[i];
            if (s >= epochs.size())
                return false;
            sum += epochs[s];
        }
        return sum == e.epochSum;
    }

    /** Fibonacci-style multiplicative hashes over (seg, page). */
    static std::uint32_t
    h1(SegmentId seg, PageIndex page)
    {
        return static_cast<std::uint32_t>(
            ((page * 0x9e3779b97f4a7c15ull) ^
             (seg * 0xbf58476d1ce4e5b9ull)) >>
            57); // top 7 bits: 0..127
    }

    static std::uint32_t
    h2(SegmentId seg, PageIndex page)
    {
        return static_cast<std::uint32_t>(
            ((page * 0x7f4a7c159e3779b9ull) ^
             (seg * 0x94d049bb133111ebull)) >>
            58); // top 6 bits: 0..63
    }

    std::unique_ptr<CpuResolution[]> slots_;
};

class Segment
{
  public:
    Segment(SegmentId id, std::string name, std::uint32_t page_size,
            std::uint64_t page_limit, UserId owner)
        : id_(id), name_(std::move(name)), pageSize_(page_size),
          pageLimit_(page_limit), owner_(owner)
    {}

    SegmentId id() const { return id_; }
    const std::string &name() const { return name_; }
    std::uint32_t pageSize() const { return pageSize_; }
    std::uint64_t pageLimit() const { return pageLimit_; }
    UserId owner() const { return owner_; }

    SegmentManager *manager() const { return manager_; }
    void setManager(SegmentManager *m) { manager_ = m; }

    /** Number of pages currently holding frames. */
    std::uint64_t presentPages() const { return pages_.size(); }

    const PageEntry *findPage(PageIndex p) const { return pages_.find(p); }

    PageEntry *findPage(PageIndex p) { return pages_.find(p); }

    /** The binding covering @p p, if any (bindings never overlap). */
    const Binding *
    findBinding(PageIndex p) const
    {
        // bindings_ is sorted by start: the only candidate is the last
        // region starting at or before p.
        auto it = std::upper_bound(
            bindings_.begin(), bindings_.end(), p,
            [](PageIndex v, const Binding &b) { return v < b.start; });
        if (it == bindings_.begin())
            return nullptr;
        --it;
        return it->covers(p) ? &*it : nullptr;
    }

    /** True if [at, at+pages) overlaps any existing bound region. */
    bool
    overlapsBinding(PageIndex at, std::uint64_t pages) const
    {
        auto it = std::upper_bound(
            bindings_.begin(), bindings_.end(), at + pages,
            [](PageIndex v, const Binding &b) { return v <= b.start; });
        if (it == bindings_.begin())
            return false;
        --it;
        return it->start + it->pages > at;
    }

    /** Insert a region keeping bindings_ sorted by start page. */
    void
    addBinding(const Binding &b)
    {
        auto it = std::upper_bound(
            bindings_.begin(), bindings_.end(), b.start,
            [](PageIndex v, const Binding &r) { return v < r.start; });
        bindings_.insert(it, b);
    }

    /** Remove and return the region starting exactly at @p at. */
    std::optional<Binding>
    takeBindingAt(PageIndex at)
    {
        auto it = std::lower_bound(
            bindings_.begin(), bindings_.end(), at,
            [](const Binding &b, PageIndex v) { return b.start < v; });
        if (it == bindings_.end() || it->start != at)
            return std::nullopt;
        Binding b = *it;
        bindings_.erase(it);
        return b;
    }

    const PageTable &pages() const { return pages_; }
    PageTable &pages() { return pages_; }

    const std::vector<Binding> &bindings() const { return bindings_; }

    bool
    inRange(PageIndex p) const
    {
        return p < pageLimit_;
    }

  private:
    SegmentId id_;
    std::string name_;
    std::uint32_t pageSize_;
    std::uint64_t pageLimit_;
    UserId owner_;
    SegmentManager *manager_ = nullptr;
    PageTable pages_;
    std::vector<Binding> bindings_; ///< sorted by Binding::start
};

} // namespace vpp::kernel

#endif // VPP_CORE_SEGMENT_H
