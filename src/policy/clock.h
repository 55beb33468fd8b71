/**
 * @file
 * One-bit clock, in the two shapes the repo needs:
 *
 *  - Pass mode (clockSecondChance = false, the manager default):
 *    beginPass() empties the ring; the manager re-feeds it one
 *    managed segment at a time in canonical (segment, page) order
 *    (insert every unpinned page, touch the referenced ones) and
 *    drains victims after each segment. The hand moves forward only
 *    and never wraps, so referenced pages survive the pass — exactly
 *    the legacy DefaultSegmentManager::clockPass semantics, which is
 *    what keeps the committed baselines byte-identical. Inserts must
 *    arrive in ascending PageId order (an out-of-order one throws),
 *    so the ring is sorted and pages are found by binary search:
 *    a pass builds no hash map.
 *
 *  - Second-chance mode (clockSecondChance = true, cache
 *    simulations): a classic circular clock over a fixed slot array;
 *    victim() clears reference bits as the hand passes and always
 *    finds a victim while any page is resident.
 */

#ifndef VPP_POLICY_CLOCK_H
#define VPP_POLICY_CLOCK_H

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "policy/policy.h"

namespace vpp::policy {

class ClockPolicy final : public ReplacementPolicy
{
  public:
    explicit ClockPolicy(const PolicyParams &p)
        : secondChance_(p.clockSecondChance)
    {}

    Kind kind() const override { return Kind::Clock; }
    bool interleavedSweep() const override { return !secondChance_; }

    void
    beginPass(std::uint64_t now) override
    {
        ReplacementPolicy::beginPass(now);
        if (!secondChance_) {
            slots_.clear();
            live_ = 0;
            hand_ = 0;
        }
    }

    void
    insert(PageId p) override
    {
        if (!secondChance_) {
            // Pass mode always appends: the hand only moves forward,
            // so reusing a freed slot behind it would hide the page
            // from the rest of the pass. beginPass() reclaims the
            // tombstones.
            if (!slots_.empty() && p <= slots_.back().id) {
                if (find(p) != kAbsent)
                    return;
                throw std::logic_error(
                    "ClockPolicy: pass-mode insert out of PageId order");
            }
            slots_.push_back(Slot{p, false, true});
            ++live_;
        } else {
            if (index_.count(p))
                return;
            if (!free_.empty()) {
                std::size_t s = free_.back();
                free_.pop_back();
                slots_[s] = Slot{p, false, true};
                index_.emplace(p, s);
            } else {
                index_.emplace(p, slots_.size());
                slots_.push_back(Slot{p, false, true});
            }
        }
        ++stats_.inserts;
    }

    void
    touch(PageId p) override
    {
        const std::size_t s = find(p);
        if (s == kAbsent)
            return;
        ++stats_.touches;
        slots_[s].ref = true;
    }

    std::optional<PageId>
    victim() override
    {
        if (size() == 0)
            return std::nullopt;
        if (!secondChance_) {
            // Linear pass: skip referenced pages without clearing
            // them (the pass itself already rearmed the sampler).
            while (hand_ < slots_.size()) {
                Slot &s = slots_[hand_];
                if (!s.live || s.ref) {
                    ++hand_;
                    continue;
                }
                return evictAt(hand_++);
            }
            return std::nullopt;
        }
        // Circular second-chance sweep; bounded by two laps.
        for (std::size_t n = 0; n < 2 * slots_.size() + 1; ++n) {
            std::size_t s = hand_;
            hand_ = (hand_ + 1) % slots_.size();
            if (!slots_[s].live)
                continue;
            if (slots_[s].ref) {
                slots_[s].ref = false;
                continue;
            }
            return evictAt(s);
        }
        return std::nullopt; // unreachable with live entries
    }

    void
    remove(PageId p) override
    {
        const std::size_t s = find(p);
        if (s == kAbsent)
            return;
        ++stats_.removes;
        drop(s);
    }

    bool contains(PageId p) const override { return find(p) != kAbsent; }

    std::uint64_t
    size() const override
    {
        return secondChance_ ? index_.size() : live_;
    }

  private:
    struct Slot
    {
        PageId id = 0;
        bool ref = false;
        bool live = false;
    };

    static constexpr std::size_t kAbsent = ~std::size_t{0};

    /** Index of the live slot holding @p p, or kAbsent. */
    std::size_t
    find(PageId p) const
    {
        if (secondChance_) {
            auto it = index_.find(p);
            return it == index_.end() ? kAbsent : it->second;
        }
        auto it = std::lower_bound(
            slots_.begin(), slots_.end(), p,
            [](const Slot &s, PageId id) { return s.id < id; });
        if (it == slots_.end() || it->id != p || !it->live)
            return kAbsent;
        return static_cast<std::size_t>(it - slots_.begin());
    }

    void
    drop(std::size_t s)
    {
        slots_[s].live = false;
        if (secondChance_) {
            free_.push_back(s);
            index_.erase(slots_[s].id);
        } else {
            --live_;
        }
    }

    PageId
    evictAt(std::size_t s)
    {
        drop(s);
        ++stats_.evictions;
        return slots_[s].id;
    }

    bool secondChance_;
    std::vector<Slot> slots_; ///< ring; ascending PageId in pass mode
    std::vector<std::size_t> free_;                 ///< second chance
    std::unordered_map<PageId, std::size_t> index_; ///< second chance
    std::uint64_t live_ = 0;                        ///< pass mode
    std::size_t hand_ = 0;
};

} // namespace vpp::policy

#endif // VPP_POLICY_CLOCK_H
