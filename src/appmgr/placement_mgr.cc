#include "appmgr/placement_mgr.h"

namespace vpp::appmgr {

using kernel::Fault;
using kernel::Kernel;
using kernel::PageIndex;

sim::Task<mgr::SlotRun>
PlacementManager::chooseSlots(Kernel &k, const Fault &f,
                              std::uint64_t n)
{
    if (n != 1)
        co_return takeFreeRun(n);

    int node = homeNode(f.segment, f.page);
    if (node < 0)
        co_return takeFreeRun(1); // no placement preference

    for (int attempt = 0; attempt < 2; ++attempt) {
        for (PageIndex slot : freeSlotSet()) {
            const kernel::PageEntry *e =
                k.segment(freeSegment()).findPage(slot);
            hw::PhysAddr a = k.memory().physAddr(e->frame);
            if (topo_.nodeOf(a) == node) {
                takeSlot(slot);
                ++placed_;
                co_return mgr::SlotRun{slot, 1};
            }
        }
        if (attempt == 0) {
            // Ask the SPCM for frames on the right node.
            co_await requestFrames(
                8, mgr::Constraint::physRange(topo_.nodeBase(node),
                                              topo_.nodeLimit(node)));
        }
    }
    // That node's memory is exhausted: place remotely.
    ++misses_;
    co_return takeFreeRun(1);
}

} // namespace vpp::appmgr
