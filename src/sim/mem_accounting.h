/**
 * @file
 * Per-thread heap accounting for the sweep runner.
 *
 * The global operator new/delete are replaced (mem_accounting.cc)
 * with thin wrappers that keep a thread-local current/peak byte
 * count. Because every simulation in a sweep lives and dies on a
 * single worker thread, the peak-above-baseline of that thread over
 * a job's lifetime is the job's peak heap footprint — the "per-run
 * RSS" a parallel sweep reports without any process-global
 * instrumentation (which could not distinguish concurrent runs).
 *
 * The hooks are compiled out under AddressSanitizer (which owns the
 * allocator) and on libcs without malloc_usable_size; hooksActive()
 * tells callers whether the numbers mean anything.
 */

#ifndef VPP_SIM_MEM_ACCOUNTING_H
#define VPP_SIM_MEM_ACCOUNTING_H

#include <cstdint>

namespace vpp::sim::mem {

/** Whether the operator new/delete hooks are compiled in. */
bool hooksActive();

/** Bytes currently allocated (and not yet freed) by this thread. */
std::int64_t threadCurrentBytes();

/** Calls to the global operator new made by this thread so far. */
std::uint64_t threadAllocations();

/** High-water mark of threadCurrentBytes() since the last reset. */
std::int64_t threadPeakBytes();

/** Restart the peak high-water mark from the current level. */
void resetThreadPeak();

/**
 * Fold the peak heap footprint of concurrently-running child threads
 * into this thread's accounted peak. A sharded run (sim/shard.h)
 * executes on worker threads whose allocations land in *their*
 * thread-local counters; without this merge the run's reported peak
 * would silently drop everything the shard workers allocated. Pass
 * the summed peak-above-baseline of all children (they ran
 * concurrently with each other and with this thread's current live
 * bytes); the thread peak becomes at least current + @p bytes.
 */
void absorbChildPeak(std::int64_t bytes);

} // namespace vpp::sim::mem

#endif // VPP_SIM_MEM_ACCOUNTING_H
