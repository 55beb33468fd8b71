/**
 * @file
 * Bitmap-backed ordered slot pool for manager free/empty segments.
 *
 * GenericSegmentManager used to keep its free-pool slot indices in
 * std::set<PageIndex>; every fault then paid two red-black-tree node
 * allocations (erase from the free set, insert into the empty set)
 * plus pointer-chasing to find contiguous runs. A SlotPool stores the
 * same ordered set as one bit per slot: insert/erase are single bit
 * flips, the lowest slot is a find-first-set, and contiguous-run
 * extraction scans whole 64-slot words at a time.
 *
 * Every operation visits slots in exactly the order the std::set code
 * did (ascending, or descending for takeHighest), so replacing the
 * containers changes no simulated outcome: the determinism goldens
 * and all committed sweep baselines are unaffected.
 */

#ifndef VPP_MANAGERS_SLOT_POOL_H
#define VPP_MANAGERS_SLOT_POOL_H

#include <algorithm>
#include <cstdint>
#include <ranges>
#include <vector>

#include "core/types.h"

namespace vpp::mgr {

/** The consecutive slots [first, first + count), held as a range. */
struct SlotRun
{
    kernel::PageIndex first = 0;
    std::uint64_t count = 0;

    bool empty() const { return count == 0; }
    std::uint64_t size() const { return count; }
    kernel::PageIndex operator[](std::uint64_t i) const { return first + i; }

    // An iota iterator holds its value, so it outlives its view.
    auto
    begin() const
    {
        return std::views::iota(first, first + count).begin();
    }

    auto
    end() const
    {
        return std::views::iota(first, first + count).end();
    }
};

class SlotPool
{
  public:
    static constexpr std::uint64_t npos = ~std::uint64_t{0};

    bool empty() const { return count_ == 0; }
    std::uint64_t size() const { return count_; }

    bool
    contains(kernel::PageIndex i) const
    {
        const std::uint64_t w = i >> 6;
        return w < bits_.size() && (bits_[w] >> (i & 63)) & 1;
    }

    void
    insert(kernel::PageIndex i)
    {
        const std::uint64_t w = i >> 6;
        if (w >= bits_.size())
            bits_.resize(w + 1, 0);
        const std::uint64_t m = std::uint64_t{1} << (i & 63);
        if (!(bits_[w] & m)) {
            bits_[w] |= m;
            ++count_;
        }
    }

    /** Remove @p i; returns whether it was present. */
    bool
    erase(kernel::PageIndex i)
    {
        const std::uint64_t w = i >> 6;
        if (w >= bits_.size())
            return false;
        const std::uint64_t m = std::uint64_t{1} << (i & 63);
        if (!(bits_[w] & m))
            return false;
        bits_[w] &= ~m;
        --count_;
        return true;
    }

    /** First slot >= @p i, or npos. */
    std::uint64_t
    findFrom(std::uint64_t i) const
    {
        std::uint64_t w = i >> 6;
        if (w >= bits_.size())
            return npos;
        std::uint64_t word = bits_[w] & (~std::uint64_t{0} << (i & 63));
        for (;;) {
            if (word)
                return (w << 6) +
                       static_cast<std::uint64_t>(
                           __builtin_ctzll(word));
            if (++w >= bits_.size())
                return npos;
            word = bits_[w];
        }
    }

    /** Highest slot present, or npos. */
    std::uint64_t
    findHighest() const
    {
        for (std::uint64_t w = bits_.size(); w-- > 0;) {
            if (bits_[w]) {
                return (w << 6) + 63 -
                       static_cast<std::uint64_t>(
                           __builtin_clzll(bits_[w]));
            }
        }
        return npos;
    }

    /** Remove and return the lowest slot (pool must be non-empty). */
    kernel::PageIndex
    popLowest()
    {
        const std::uint64_t i = findFrom(0);
        erase(i);
        return i;
    }

    /** Consecutive present slots starting at @p i, capped at @p cap. */
    std::uint64_t
    runLengthAt(std::uint64_t i, std::uint64_t cap) const
    {
        std::uint64_t len = 0;
        std::uint64_t w = i >> 6;
        std::uint64_t b = i & 63;
        while (len < cap && w < bits_.size()) {
            const std::uint64_t avail = 64 - b;
            const std::uint64_t inv = ~(bits_[w] >> b);
            const std::uint64_t run =
                inv ? std::min<std::uint64_t>(
                          static_cast<std::uint64_t>(
                              __builtin_ctzll(inv)),
                          avail)
                    : avail;
            len += run;
            if (run < avail)
                break;
            ++w;
            b = 0;
        }
        return std::min(len, cap);
    }

    /**
     * Extract a run of up to @p n consecutive slots, preferring the
     * lowest run of full length, else the lowest longest run (the
     * exact policy of the former std::set scan).
     */
    SlotRun
    takeRun(std::uint64_t n)
    {
        if (count_ == 0 || n == 0)
            return {};
        std::uint64_t best_start = npos;
        std::uint64_t best_len = 0;
        std::uint64_t i = findFrom(0);
        while (i != npos) {
            const std::uint64_t len = runLengthAt(i, n);
            if (len > best_len) {
                best_len = len;
                best_start = i;
            }
            if (len >= n)
                break;
            i = findFrom(i + len + 1);
        }
        for (std::uint64_t k = 0; k < best_len; ++k)
            erase(best_start + k);
        return SlotRun{best_start, best_len};
    }

    /** Remove and return up to @p n lowest slots, ascending. */
    std::vector<kernel::PageIndex>
    takeLowest(std::uint64_t n)
    {
        std::vector<kernel::PageIndex> out;
        out.reserve(std::min(n, count_));
        while (out.size() < n && count_ > 0)
            out.push_back(popLowest());
        return out;
    }

    /** Remove and return up to @p n highest slots, descending. */
    std::vector<kernel::PageIndex>
    takeHighest(std::uint64_t n)
    {
        std::vector<kernel::PageIndex> out;
        out.reserve(std::min(n, count_));
        while (out.size() < n && count_ > 0) {
            const std::uint64_t i = findHighest();
            erase(i);
            out.push_back(i);
        }
        return out;
    }

    /** Ascending iteration over present slots (range-for friendly). */
    class const_iterator
    {
      public:
        const_iterator(const SlotPool *p, std::uint64_t i)
            : pool_(p), i_(i)
        {}

        kernel::PageIndex operator*() const { return i_; }

        const_iterator &
        operator++()
        {
            i_ = pool_->findFrom(i_ + 1);
            return *this;
        }

        bool
        operator!=(const const_iterator &o) const
        {
            return i_ != o.i_;
        }

        bool
        operator==(const const_iterator &o) const
        {
            return i_ == o.i_;
        }

      private:
        const SlotPool *pool_;
        std::uint64_t i_;
    };

    const_iterator begin() const { return {this, findFrom(0)}; }
    const_iterator end() const { return {this, npos}; }

  private:
    std::vector<std::uint64_t> bits_;
    std::uint64_t count_ = 0;
};

} // namespace vpp::mgr

#endif // VPP_MANAGERS_SLOT_POOL_H
