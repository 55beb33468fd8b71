/**
 * @file
 * Secondary-storage latency model.
 *
 * A Disk serves one request at a time; each transfer costs an average
 * positioning latency plus size/bandwidth. The paper's argument rests
 * on this latency ("a page fault to secondary storage now costing close
 * to a million instruction times"), so the model is deliberately simple
 * and explicit.
 *
 * Failure model (vpp::inject): an attached inject::Engine may fail a
 * transfer (DiskError after the simulated time has elapsed, as a real
 * controller reports an error only once the operation completes) or
 * stretch it with a latency spike. The reads()/writes() counters are
 * charged when the operation is *issued* (after any request overhead
 * ahead of it), so an aborted transfer is still accounted; errors()
 * and retries() track the failure path.
 * Without an engine the timing and event sequence are exactly the
 * error-free model.
 */

#ifndef VPP_HW_DISK_H
#define VPP_HW_DISK_H

#include <cstdint>
#include <stdexcept>
#include <string>

#include "inject/inject.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "sim/time.h"

namespace vpp::hw {

/** A transfer failed (injected media/controller error). */
class DiskError : public std::runtime_error
{
  public:
    explicit DiskError(const std::string &what)
        : std::runtime_error("disk error: " + what)
    {}
};

namespace detail {

// Thread-local mirrors of the per-disk error/retry counters, reset at
// sweep-row entry so the runner can report per-row totals (the same
// pattern as hw::threadPeakCommittedBytes for committed memory).
inline thread_local std::uint64_t tlsDiskErrors = 0;
inline thread_local std::uint64_t tlsDiskRetries = 0;

} // namespace detail

/** Injected disk errors on this thread since the last reset. */
inline std::uint64_t
threadDiskErrors()
{
    return detail::tlsDiskErrors;
}

/** Disk-I/O retries on this thread since the last reset. */
inline std::uint64_t
threadDiskRetries()
{
    return detail::tlsDiskRetries;
}

inline void
resetThreadDiskCounters()
{
    detail::tlsDiskErrors = 0;
    detail::tlsDiskRetries = 0;
}

class Disk
{
  public:
    Disk(sim::Simulation &s, sim::Duration latency, double bandwidth_mbps)
        : sim_(&s), mutex_(s), latency_(latency),
          bandwidthMBps_(bandwidth_mbps)
    {}

    /** Attach (or detach with nullptr) a fault-injection engine. */
    void setInjector(inject::Engine *e) { inject_ = e; }

    /** Simulated duration of a single transfer of @p bytes. */
    sim::Duration
    transferTime(std::uint64_t bytes) const
    {
        double transfer_s = static_cast<double>(bytes) /
                            (bandwidthMBps_ * 1e6);
        return latency_ + sim::sec(transfer_s);
    }

    /**
     * Read @p bytes, issued once @p lead of request overhead (a file
     * server's) has passed.
     */
    sim::Task<>
    read(std::uint64_t bytes, sim::Duration lead = 0)
    {
        return io(bytes, false, lead);
    }

    /** Write @p bytes, issued once @p lead has passed. */
    sim::Task<>
    write(std::uint64_t bytes, sim::Duration lead = 0)
    {
        return io(bytes, true, lead);
    }

    /** A caller is about to retry a failed transfer on this disk. */
    void
    noteRetry()
    {
        ++retries_;
        ++detail::tlsDiskRetries;
    }

    std::uint64_t reads() const { return reads_; }
    std::uint64_t writes() const { return writes_; }
    std::uint64_t bytesRead() const { return bytesRead_; }
    std::uint64_t bytesWritten() const { return bytesWritten_; }
    std::uint64_t errors() const { return errors_; }
    std::uint64_t retries() const { return retries_; }
    sim::Duration busyTime() const { return busy_; }

  private:
    sim::Task<>
    io(std::uint64_t bytes, bool is_write, sim::Duration lead)
    {
        co_await sim_->delay(lead);
        // Account the attempt once issued: an aborted transfer still
        // occupied the device and must show in the counters.
        if (is_write) {
            ++writes_;
            bytesWritten_ += bytes;
        } else {
            ++reads_;
            bytesRead_ += bytes;
        }
        co_await mutex_.lock();
        sim::Duration d = transferTime(bytes);
        if (inject_)
            d += inject_->diskLatencySpike();
        busy_ += d;
        co_await sim_->delay(d);
        // The error verdict arrives with the completion interrupt,
        // after the device was held for the full transfer.
        const bool failed =
            inject_ && (is_write ? inject_->diskWriteError()
                                 : inject_->diskReadError());
        mutex_.unlock();
        if (failed) {
            ++errors_;
            ++detail::tlsDiskErrors;
            throw DiskError(std::string(is_write ? "write" : "read") +
                            " of " + std::to_string(bytes) + " bytes");
        }
    }

    sim::Simulation *sim_;
    sim::SimMutex mutex_;
    sim::Duration latency_;
    double bandwidthMBps_;
    inject::Engine *inject_ = nullptr;
    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
    std::uint64_t bytesRead_ = 0;
    std::uint64_t bytesWritten_ = 0;
    std::uint64_t errors_ = 0;
    std::uint64_t retries_ = 0;
    sim::Duration busy_ = 0;
};

} // namespace vpp::hw

#endif // VPP_HW_DISK_H
