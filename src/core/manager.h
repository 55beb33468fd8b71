/**
 * @file
 * The segment-manager interface (paper §2.1-§2.2).
 *
 * A SegmentManager is the process-level module responsible for the
 * pages of the segments bound to it: it handles page, protection and
 * copy-on-write faults, and it is notified when a managed segment is
 * destroyed so it can reclaim the segment's frames.
 *
 * The kernel charges communication costs around each invocation
 * according to the manager's execution mode: a SameProcess manager is
 * reached by an upcall on the faulting process (no context switch); a
 * SeparateProcess manager is a server reached via Send/Receive/Reply
 * with two context switches, and handles one request at a time.
 */

#ifndef VPP_CORE_MANAGER_H
#define VPP_CORE_MANAGER_H

#include <cstdint>
#include <span>
#include <string>

#include "core/fault.h"
#include "core/types.h"
#include "hw/config.h"
#include "sim/task.h"

namespace vpp::kernel {

class Kernel;

class SegmentManager
{
  public:
    SegmentManager(std::string name, hw::ManagerMode mode)
        : name_(std::move(name)), mode_(mode)
    {}

    virtual ~SegmentManager() = default;

    SegmentManager(const SegmentManager &) = delete;
    SegmentManager &operator=(const SegmentManager &) = delete;

    /**
     * Resolve a fault: arrange for the faulting page to become
     * accessible (typically by migrating a frame into it) before
     * returning. Returning without resolving causes the kernel to
     * redeliver; persistent failure raises KernelErrc::FaultLoop.
     */
    virtual sim::Task<> handleFault(Kernel &k, const Fault &f) = 0;

    /**
     * Resolve a batch of faults delivered in one kernel crossing
     * (MachineConfig::faultCoalescing), even a batch of one. The
     * kernel has charged the communication cost once for the whole
     * batch and has dropped the faults already resolved when the
     * crossing began; implementations only pay their per-fault work.
     * Under a ResiliencePolicy, a batch that crashes, stalls past its
     * deadline or lies is redelivered with only its unresolved faults.
     * Default: sequential handleFault.
     */
    virtual sim::Task<>
    handleFaults(Kernel &k, std::span<const Fault> fs)
    {
        for (const Fault &f : fs)
            co_await handleFault(k, f);
    }

    /**
     * A managed segment is being destroyed; reclaim its frames. Frames
     * still present afterwards are swept into the physical segment.
     */
    virtual sim::Task<>
    segmentClosed(Kernel &k, SegmentId s)
    {
        (void)k;
        (void)s;
        co_return;
    }

    const std::string &name() const { return name_; }
    hw::ManagerMode mode() const { return mode_; }

    /** Total kernel -> manager invocations (faults + closes). */
    std::uint64_t calls() const { return calls_; }
    std::uint64_t faultsHandled() const { return faultsHandled_; }

    /** Resilience counters (kernel-observed misbehaviour, §2-§3). */
    std::uint64_t faultTimeouts() const { return timeouts_; }
    std::uint64_t failovers() const { return failovers_; }
    std::uint64_t crashes() const { return crashes_; }

    void noteCall() { ++calls_; }
    void noteFaultsHandled(std::uint64_t n) { faultsHandled_ += n; }
    void noteTimeout() { ++timeouts_; }
    void noteFailover() { ++failovers_; }
    void noteCrash() { ++crashes_; }

    void
    resetStats()
    {
        calls_ = 0;
        faultsHandled_ = 0;
        timeouts_ = 0;
        failovers_ = 0;
        crashes_ = 0;
    }

  private:
    std::string name_;
    hw::ManagerMode mode_;
    std::uint64_t calls_ = 0;
    std::uint64_t faultsHandled_ = 0;
    std::uint64_t timeouts_ = 0;
    std::uint64_t failovers_ = 0;
    std::uint64_t crashes_ = 0;
};

} // namespace vpp::kernel

#endif // VPP_CORE_MANAGER_H
