/**
 * @file
 * The V-style Send/Reply crossing (paper §2.1).
 *
 * ipc::cross is the one routine that enters a server and comes back:
 * the kernel's crossing into a segment manager and every SPCM request,
 * query and market round go through it. It charges the entry cost,
 * takes the server's lock if it has one, runs the body there, releases
 * the lock and charges the exit cost. CallCost holds the Table 1
 * Send/Reply decomposition of a separate-process server; same-process
 * upcalls pass their own costs and no lock.
 */

#ifndef VPP_IPC_CROSS_H
#define VPP_IPC_CROSS_H

#include <utility>

#include "hw/config.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace vpp::ipc {

/** Per-direction cost of a synchronous call. */
struct CallCost
{
    sim::Duration send;  ///< charged before the server sees the request
    sim::Duration reply; ///< charged before the client resumes

    static CallCost
    fromMachine(const hw::MachineConfig &m)
    {
        return CallCost{m.cost.ipcSend + m.cost.contextSwitch,
                        m.cost.ipcReply + m.cost.contextSwitch};
    }
};

/**
 * One crossing: charge @p in, take @p lock unless it is null, run the
 * task that @p body() returns (an empty task runs nothing), release the
 * lock and charge @p out. The body is called only once the server is
 * entered, after the lock. A throwing body releases the lock, skips
 * @p out and propagates to the caller.
 */
template <typename Body>
sim::Task<>
cross(sim::Simulation &s, sim::SimMutex *lock, sim::Duration in,
      sim::Duration out, Body body)
{
    co_await s.delay(in);
    if (lock)
        co_await lock->lock();
    try {
        co_await body();
    } catch (...) {
        if (lock)
            lock->unlock();
        throw;
    }
    if (lock)
        lock->unlock();
    co_await s.delay(out);
}

} // namespace vpp::ipc

#endif // VPP_IPC_CROSS_H
