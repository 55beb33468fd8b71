#include "appmgr/coloring_mgr.h"

namespace vpp::appmgr {

using kernel::Fault;
using kernel::Kernel;
using kernel::PageIndex;

sim::Task<mgr::SlotRun>
ColoringManager::chooseSlots(Kernel &k, const Fault &f, std::uint64_t n)
{
    // Coloring allocates one page at a time; fall back to the default
    // policy for batched requests.
    if (n != 1)
        co_return takeFreeRun(n);

    const std::uint32_t want =
        static_cast<std::uint32_t>(f.page % numColors_);

    for (int attempt = 0; attempt < 2; ++attempt) {
        for (PageIndex slot : freeSlotSet()) {
            if (colorOfSlot(k, slot) == want) {
                takeSlot(slot);
                ++colorHits_;
                co_return mgr::SlotRun{slot, 1};
            }
        }
        // No frame of the right color in the pool: ask the SPCM for a
        // batch of that color (physical placement control).
        if (attempt == 0) {
            co_await requestFrames(
                8, mgr::Constraint::pageColor(want, numColors_));
        }
    }
    // The system has run out of frames of this color; take anything.
    ++colorMisses_;
    co_return takeFreeRun(1);
}

} // namespace vpp::appmgr
