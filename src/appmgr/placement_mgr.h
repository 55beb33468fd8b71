/**
 * @file
 * Physical placement control for distributed memory (paper §1, §2.2).
 *
 * A PlacementManager backs each region of a segment with frames from
 * the NUMA node of the worker that will touch it, using the SPCM's
 * physical-address-range allocation ("these techniques rely on being
 * able to request page frames from the system page cache manager with
 * specific physical addresses, or in particular physical address
 * ranges").
 */

#ifndef VPP_APPMGR_PLACEMENT_MGR_H
#define VPP_APPMGR_PLACEMENT_MGR_H

#include <cstdint>
#include <unordered_map>

#include "hw/numa.h"
#include "managers/generic.h"

namespace vpp::appmgr {

class PlacementManager : public mgr::GenericSegmentManager
{
  public:
    PlacementManager(kernel::Kernel &k,
                     mgr::SystemPageCacheManager *spcm,
                     kernel::UserId uid, hw::NumaTopology topo)
        : GenericSegmentManager(k, "placement-mgr",
                                hw::ManagerMode::SameProcess, spcm,
                                uid),
          topo_(topo)
    {}

    /**
     * Declare that pages [first, first+pages) of @p seg belong to
     * @p node (the worker there will touch them).
     */
    void
    assign(kernel::SegmentId seg, kernel::PageIndex first,
           std::uint64_t pages, int node)
    {
        for (std::uint64_t i = 0; i < pages; ++i)
            home_[{seg, first + i}] = node;
    }

    /** Preferred node for a page; -1 if unassigned. */
    int
    homeNode(kernel::SegmentId seg, kernel::PageIndex page) const
    {
        auto it = home_.find({seg, page});
        return it == home_.end() ? -1 : it->second;
    }

    const hw::NumaTopology &topology() const { return topo_; }

    std::uint64_t placedLocally() const { return placed_; }
    std::uint64_t placementMisses() const { return misses_; }

  protected:
    sim::Task<mgr::SlotRun>
    chooseSlots(kernel::Kernel &k, const kernel::Fault &f,
                std::uint64_t n) override;

  private:
    struct KeyHash
    {
        std::size_t
        operator()(const std::pair<kernel::SegmentId,
                                   kernel::PageIndex> &k) const
        {
            return std::hash<std::uint64_t>()(
                (static_cast<std::uint64_t>(k.first) << 40) ^
                k.second);
        }
    };

    hw::NumaTopology topo_;
    std::unordered_map<std::pair<kernel::SegmentId, kernel::PageIndex>,
                       int, KeyHash>
        home_;
    std::uint64_t placed_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace vpp::appmgr

#endif // VPP_APPMGR_PLACEMENT_MGR_H
