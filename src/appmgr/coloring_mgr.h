/**
 * @file
 * Page-coloring segment manager (paper §1, §2.2).
 *
 * "An application can allocate physical pages to virtual pages to
 * minimize mapping collisions in physically addressed caches ...
 * implementing page coloring on an application-specific basis."
 *
 * The ColoringManager backs page p of a managed segment with a frame
 * whose cache color is p mod C, so consecutive virtual pages never
 * collide in a physically-indexed cache. It relies on the SPCM's
 * ability to grant frames by color (physical placement control).
 */

#ifndef VPP_APPMGR_COLORING_MGR_H
#define VPP_APPMGR_COLORING_MGR_H

#include <cstdint>

#include "managers/generic.h"

namespace vpp::appmgr {

class ColoringManager : public mgr::GenericSegmentManager
{
  public:
    ColoringManager(kernel::Kernel &k,
                    mgr::SystemPageCacheManager *spcm,
                    kernel::UserId uid, std::uint32_t num_colors)
        : GenericSegmentManager(k, "coloring-mgr",
                                hw::ManagerMode::SameProcess, spcm,
                                uid),
          numColors_(num_colors)
    {}

    std::uint32_t numColors() const { return numColors_; }

    std::uint64_t colorHits() const { return colorHits_; }
    std::uint64_t colorMisses() const { return colorMisses_; }

  protected:
    sim::Task<mgr::SlotRun>
    chooseSlots(kernel::Kernel &k, const kernel::Fault &f,
                std::uint64_t n) override;

  private:
    std::uint32_t
    colorOfSlot(kernel::Kernel &k, kernel::PageIndex slot) const
    {
        const kernel::PageEntry *e =
            k.segment(freeSegment()).findPage(slot);
        return e ? e->frame % numColors_ : 0;
    }

    std::uint32_t numColors_;
    std::uint64_t colorHits_ = 0;
    std::uint64_t colorMisses_ = 0;
};

} // namespace vpp::appmgr

#endif // VPP_APPMGR_COLORING_MGR_H
