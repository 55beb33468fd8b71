/**
 * @file
 * Two-level sparse page table for segments.
 *
 * Replaces the seed's std::map<PageIndex, PageEntry>: a directory of
 * fixed-size leaf chunks indexed by `page >> kLeafBits`, each leaf a
 * flat array of entries plus a presence bitmap. Lookup, insert and
 * erase are O(1); ordered iteration walks the directory and scans
 * bitmaps with count-trailing-zeros, preserving the ascending-page
 * order the kernel's sweep and the managers' clock passes rely on.
 *
 * Entry addresses are stable for the lifetime of the table: leaves are
 * never moved or freed on erase (the directory holds unique_ptrs and
 * keeps empty leaves as high-water storage), so a PageEntry* stays
 * valid until the covering page is erased and something else is
 * installed there — the same guarantee std::map gave, minus iterator
 * invalidation hazards.
 */

#ifndef VPP_CORE_PAGE_TABLE_H
#define VPP_CORE_PAGE_TABLE_H

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/types.h"
#include "hw/types.h"

namespace vpp::kernel {

/** A page with a frame installed. */
struct PageEntry
{
    hw::FrameId frame = hw::kInvalidFrame;
    std::uint32_t flags = 0;
};

class PageTable
{
  public:
    static constexpr unsigned kLeafBits = 9;
    static constexpr PageIndex kLeafPages = PageIndex{1} << kLeafBits;
    static constexpr PageIndex kLeafMask = kLeafPages - 1;
    static constexpr unsigned kWords = kLeafPages / 64;

    struct Leaf
    {
        std::uint64_t present[kWords] = {};
        std::uint32_t count = 0;
        PageEntry slots[kLeafPages];
    };

    std::uint64_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    void
    clear()
    {
        leaves_.clear();
        size_ = 0;
    }

    const PageEntry *
    find(PageIndex p) const
    {
        const std::size_t li = p >> kLeafBits;
        if (li >= leaves_.size() || !leaves_[li])
            return nullptr;
        const Leaf &leaf = *leaves_[li];
        const PageIndex s = p & kLeafMask;
        if (!(leaf.present[s >> 6] & (std::uint64_t{1} << (s & 63))))
            return nullptr;
        return &leaf.slots[s];
    }

    PageEntry *
    find(PageIndex p)
    {
        return const_cast<PageEntry *>(
            static_cast<const PageTable *>(this)->find(p));
    }

    bool contains(PageIndex p) const { return find(p) != nullptr; }

    /**
     * Entry at @p p, default-constructed and marked present if absent
     * (matching std::map::operator[] so call sites read identically).
     */
    PageEntry &
    operator[](PageIndex p)
    {
        Leaf &leaf = leafFor(p);
        const PageIndex s = p & kLeafMask;
        const std::uint64_t bit = std::uint64_t{1} << (s & 63);
        if (!(leaf.present[s >> 6] & bit)) {
            leaf.present[s >> 6] |= bit;
            ++leaf.count;
            ++size_;
            leaf.slots[s] = PageEntry{};
        }
        return leaf.slots[s];
    }

    bool
    erase(PageIndex p)
    {
        const std::size_t li = p >> kLeafBits;
        if (li >= leaves_.size() || !leaves_[li])
            return false;
        Leaf &leaf = *leaves_[li];
        const PageIndex s = p & kLeafMask;
        const std::uint64_t bit = std::uint64_t{1} << (s & 63);
        if (!(leaf.present[s >> 6] & bit))
            return false;
        leaf.present[s >> 6] &= ~bit;
        --leaf.count;
        --size_;
        return true;
    }

    /** Largest present page, if any (replaces map::rbegin()). */
    std::optional<PageIndex>
    maxPage() const
    {
        for (std::size_t li = leaves_.size(); li-- > 0;) {
            const Leaf *leaf = leaves_[li].get();
            if (!leaf || leaf->count == 0)
                continue;
            for (unsigned w = kWords; w-- > 0;) {
                if (leaf->present[w]) {
                    const unsigned b =
                        63 - std::countl_zero(leaf->present[w]);
                    return (static_cast<PageIndex>(li) << kLeafBits) +
                           w * 64 + b;
                }
            }
        }
        return std::nullopt;
    }

    /** Pair-like iteration value; binds as `const auto &[page, entry]`. */
    template <typename EntryRef>
    struct Item
    {
        PageIndex first;
        EntryRef second;
    };

    template <bool Const>
    class Iter
    {
        using TablePtr =
            std::conditional_t<Const, const PageTable *, PageTable *>;
        using EntryRef =
            std::conditional_t<Const, const PageEntry &, PageEntry &>;

      public:
        Iter(TablePtr t, std::size_t li, PageIndex slot)
            : t_(t), li_(li), slot_(slot)
        {
            settle();
        }

        Item<EntryRef>
        operator*() const
        {
            return Item<EntryRef>{
                (static_cast<PageIndex>(li_) << kLeafBits) + slot_,
                t_->leaves_[li_]->slots[slot_]};
        }

        Iter &
        operator++()
        {
            ++slot_;
            settle();
            return *this;
        }

        bool
        operator==(const Iter &o) const
        {
            return li_ == o.li_ && slot_ == o.slot_;
        }

        bool operator!=(const Iter &o) const { return !(*this == o); }

      private:
        /** Advance to the next present slot at or after (li_, slot_). */
        void
        settle()
        {
            const auto &leaves = t_->leaves_;
            while (li_ < leaves.size()) {
                const Leaf *leaf = leaves[li_].get();
                if (leaf && leaf->count != 0 && slot_ < kLeafPages) {
                    unsigned w = static_cast<unsigned>(slot_ >> 6);
                    std::uint64_t word = leaf->present[w] >>
                                         (slot_ & 63);
                    if (word) {
                        slot_ += std::countr_zero(word);
                        return;
                    }
                    for (++w; w < kWords; ++w) {
                        if (leaf->present[w]) {
                            slot_ = w * 64 +
                                    std::countr_zero(leaf->present[w]);
                            return;
                        }
                    }
                }
                ++li_;
                slot_ = 0;
            }
            slot_ = 0; // canonical end()
        }

        TablePtr t_;
        std::size_t li_;
        PageIndex slot_;

        friend class PageTable;
    };

    using iterator = Iter<false>;
    using const_iterator = Iter<true>;

    iterator begin() { return iterator(this, 0, 0); }
    iterator end() { return iterator(this, leaves_.size(), 0); }
    const_iterator begin() const { return const_iterator(this, 0, 0); }
    const_iterator
    end() const
    {
        return const_iterator(this, leaves_.size(), 0);
    }

    /** First present page at or after @p p (map::lower_bound). */
    const_iterator
    lowerBound(PageIndex p) const
    {
        const std::size_t li = p >> kLeafBits;
        if (li >= leaves_.size())
            return end();
        return const_iterator(this, li, p & kLeafMask);
    }

  private:
    Leaf &
    leafFor(PageIndex p)
    {
        const std::size_t li = p >> kLeafBits;
        if (li >= leaves_.size())
            leaves_.resize(li + 1);
        if (!leaves_[li])
            leaves_[li] = std::make_unique<Leaf>();
        return *leaves_[li];
    }

    std::vector<std::unique_ptr<Leaf>> leaves_;
    std::uint64_t size_ = 0;
};

} // namespace vpp::kernel

#endif // VPP_CORE_PAGE_TABLE_H
