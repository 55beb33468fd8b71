/**
 * @file
 * The default segment manager (paper §2.3).
 *
 * In V++ the UIO Cache Directory Server (UCDS) is extended to act as
 * the default segment manager: it manages the virtual memory system as
 * a file page cache, handles file opens/closes, services faults for
 * conventional programs that are oblivious to external page-cache
 * management, and implements a clock algorithm whose reference
 * sampling works by revoking page protections and re-enabling them (a
 * batch of contiguous pages at a time) when the sampling fault
 * arrives. File appends are allocated in 16 KB units.
 *
 * It runs as a server outside the kernel (separate process), so every
 * fault it handles costs the full Send/Receive/Reply path — Table 1
 * row 2.
 */

#ifndef VPP_MANAGERS_DEFAULT_MGR_H
#define VPP_MANAGERS_DEFAULT_MGR_H

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "managers/generic.h"
#include "policy/policy.h"
#include "uio/block_io.h"
#include "uio/file_server.h"

namespace vpp::mgr {

struct DefaultManagerParams
{
    std::uint64_t appendUnitPages = 4; ///< 16 KB with 4 KB pages
    std::uint64_t protBatchPages = 8;  ///< sampling re-enable batch
    /// Frames per SPCM request; 0 (the default) derives
    /// 2 * MachineConfig::mgrRequestBatch — the UCDS serves batchy
    /// append workloads, so it rides the shared knob at twice the
    /// generic managers' batch. A nonzero value overrides the knob.
    std::uint64_t requestBatch = 0;
};

class DefaultSegmentManager : public GenericSegmentManager
{
  public:
    DefaultSegmentManager(kernel::Kernel &k, SystemPageCacheManager *spcm,
                          uio::FileServer &server, uio::FileRegistry &reg,
                          DefaultManagerParams params = {});

    /**
     * Open (cache) a file: create the cached-file segment and register
     * it. Repeated opens return the existing segment.
     */
    sim::Task<kernel::SegmentId> openFile(uio::FileId f);

    /** Close a cached file: write dirty pages back, free its frames. */
    sim::Task<> closeFile(uio::FileId f);

    /** Create an anonymous (zero-fill) segment: heap, stack, ... */
    sim::Task<kernel::SegmentId>
    createAnonymous(std::string name, std::uint64_t pages,
                    kernel::UserId owner);

    /** Begin managing an externally created segment. */
    void adopt(kernel::SegmentId s) { managed_.insert(s); }

    sim::Task<> segmentClosed(kernel::Kernel &k,
                              kernel::SegmentId s) override;

    // ------------------------------------------------------------------
    // Replacement pass (reference sampling via protection revocation)
    // ------------------------------------------------------------------

    /**
     * One replacement pass over all managed segments, driven by the
     * configured policy (MachineConfig::replacementPolicy). Pages
     * referenced since the previous pass lose their protection
     * (arming the sampler); the policy picks victims until
     * @p target_reclaim frames have been recovered. With the default
     * Clock policy the pass is segment-interleaved and byte-identical
     * to the historical hard-wired clock (the name survives from that
     * heritage); list-based policies sample every segment first and
     * then evict in global policy order. Returns frames reclaimed.
     * Passes on one manager must not overlap: starting one while
     * another is suspended throws std::logic_error.
     */
    sim::Task<std::uint64_t> clockPass(std::uint64_t target_reclaim);

    /** The replacement policy driving clockPass. */
    policy::ReplacementPolicy &replacementPolicy() { return *policy_; }
    std::string_view
    policyName() const
    {
        return policy::kindName(policy_->kind());
    }

    /**
     * Write every dirty cached-file page back to the server without
     * reclaiming it (the update-daemon function of a conventional
     * kernel, here a manager policy). Returns pages written.
     */
    sim::Task<std::uint64_t> syncPass();

    /** Spawn a periodic syncPass every @p interval. */
    void startSyncDaemon(sim::Duration interval);
    void stopSyncDaemon() { syncRunning_ = false; }

    /** Zero-time preload of a file's pages (benchmark setup). */
    void preloadFileNow(uio::FileId f);

    const DefaultManagerParams &params() const { return params_; }

    std::uint64_t samplingFaults() const { return samplingFaults_; }
    std::uint64_t clockPasses() const { return clockPasses_; }

  protected:
    sim::Task<> fillPage(kernel::Kernel &k, const kernel::Fault &f,
                         kernel::PageIndex dst_page,
                         kernel::PageIndex free_slot) override;

    sim::Task<> afterFault(kernel::Kernel &k,
                           const kernel::Fault &f) override;

    sim::Task<> handleProtection(kernel::Kernel &k,
                                 const kernel::Fault &f) override;

    sim::Task<> writeBack(kernel::Kernel &k, kernel::SegmentId seg,
                          kernel::PageIndex page) override;

    std::uint64_t allocCount(kernel::Kernel &k,
                             const kernel::Fault &f) override;

  private:
    /** clockPass's body, run while passRunning_ is set. */
    sim::Task<std::uint64_t> runPass(std::uint64_t target_reclaim);

    uio::FileServer *server_;
    uio::FileRegistry *reg_;
    DefaultManagerParams params_;
    std::set<kernel::SegmentId> managed_;
    std::unique_ptr<policy::ReplacementPolicy> policy_;
    /// clockPass's buffers, kept between passes so a pass allocates
    /// nothing in steady state.
    std::vector<kernel::SegmentId> passSegs_;
    std::vector<kernel::PageIndex> passReferenced_;
    std::uint64_t samplingFaults_ = 0;
    std::uint64_t clockPasses_ = 0;
    bool passRunning_ = false;
    bool syncRunning_ = false;
};

} // namespace vpp::mgr

#endif // VPP_MANAGERS_DEFAULT_MGR_H
