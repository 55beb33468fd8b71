/**
 * @file
 * Processor resources for multi-CPU simulations.
 *
 * The database study (paper §3.3) runs on 6 processors of an SGI 4D/380.
 * A CpuPool models N identical CPUs: a simulated process acquires a CPU,
 * charges compute time against it, and releases it whenever it blocks
 * (I/O, lock wait, page fault). acquire() and compute() return plain
 * awaiters, not tasks: taking an idle CPU builds no coroutine frame
 * and runs no event, and a wait or a compute span costs one event.
 * A waiting process parks on the pool's semaphore, whose wait list
 * (sync.h) allocates nothing. Holds are released explicitly, never
 * from a destructor: a frame destroyed at teardown must not signal the
 * pool (see sync.h).
 */

#ifndef VPP_SIM_RESOURCE_H
#define VPP_SIM_RESOURCE_H

#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/time.h"

namespace vpp::sim {

class CpuPool
{
  public:
    CpuPool(Simulation &sim, int ncpus)
        : sim_(&sim), sem_(sim, ncpus), ncpus_(ncpus)
    {}

    /**
     * Wait for a free CPU. Pair with release(). The awaiter wraps the
     * semaphore's: an idle CPU is taken without suspending, and on
     * resumption the wait is added to waitTime() and counted.
     */
    [[nodiscard]] auto
    acquire()
    {
        struct Awaiter : Semaphore::Acquire
        {
            void
            await_resume()
            {
                pool->waitTime_ += pool->sim_->now() - since;
                ++pool->acquisitions_;
            }

            CpuPool *pool;
            SimTime since;
        };
        return Awaiter{sem_.acquire(), this, sim_->now()};
    }

    void release() { sem_.release(); }

    /** Charge @p d of compute time on the CPU currently held. */
    [[nodiscard]] auto
    compute(Duration d)
    {
        busyTime_ += d;
        return sim_->delay(d);
    }

    int ncpus() const { return ncpus_; }
    int idle() const { return sem_.available(); }
    std::int64_t queued() const { return sem_.waiting(); }

    /** Aggregate busy time across all CPUs. */
    Duration busyTime() const { return busyTime_; }

    /** Total time processes spent waiting for a CPU. */
    Duration waitTime() const { return waitTime_; }

    std::uint64_t acquisitions() const { return acquisitions_; }

    /** Mean utilisation over [0, now] across the pool. */
    double
    utilization() const
    {
        SimTime t = sim_->now();
        if (t <= 0)
            return 0.0;
        return static_cast<double>(busyTime_) /
               (static_cast<double>(t) * ncpus_);
    }

  private:
    Simulation *sim_;
    Semaphore sem_;
    int ncpus_;
    Duration busyTime_ = 0;
    Duration waitTime_ = 0;
    std::uint64_t acquisitions_ = 0;
};

} // namespace vpp::sim

#endif // VPP_SIM_RESOURCE_H
