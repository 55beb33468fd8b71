/**
 * @file
 * Machine description and primitive-cost model.
 *
 * Every simulated control path (trap, context switch, page-table edit,
 * memory copy, disk access) charges time from this table. Two presets
 * reproduce the paper's testbeds:
 *
 *  - decstation5000_200(): 25 MHz R3000, 4 KB pages, 128 MB. The
 *    primitive costs are calibrated so the *composed* paths match the
 *    paper's Table 1 (V++ faulting-process minimal fault 107 us,
 *    default-manager fault 379 us, Ultrix fault 175 us including the
 *    75 us zero-fill, read/write of a cached 4 KB block, and the 152 us
 *    Ultrix signal+mprotect user-level fault).
 *
 *  - sgi4d380(): 8 x 30-MIPS processors (the study uses 6), used by the
 *    database transaction experiment of paper section 3.3.
 */

#ifndef VPP_HW_CONFIG_H
#define VPP_HW_CONFIG_H

#include <cstdint>

#include "policy/kind.h"
#include "sim/time.h"

namespace vpp::hw {

using sim::Duration;

/** Where a segment manager executes relative to the faulting process. */
enum class ManagerMode
{
    SameProcess,     ///< handler runs on the faulting process (upcall)
    SeparateProcess, ///< handler is a server reached via IPC
};

/** Primitive control-path costs, in simulated time. */
struct CostModel
{
    // --- traps and mode switches -------------------------------------
    Duration trapEnter;     ///< user -> kernel exception entry
    Duration trapExit;      ///< kernel -> user return
    Duration syscall;       ///< base syscall enter+decode+exit
    Duration contextSwitch; ///< full process switch
    Duration upcall;        ///< kernel -> user fault handler, same process
    Duration directResume;  ///< handler -> app without kernel (R3000)
    Duration kernelResume;  ///< handler -> app via kernel (680x0-style)

    // --- IPC (V-style Send/Receive/Reply) ----------------------------
    Duration ipcSend;  ///< marshal + deliver, excl. context switch
    Duration ipcReply; ///< reply path, excl. context switch

    // --- kernel VM operations ----------------------------------------
    Duration faultDispatch;      ///< decode fault, segment/region lookup
    Duration migrateBase;        ///< MigratePages fixed cost
    Duration migratePerPage;     ///< per page-frame moved
    Duration modifyFlagsBase;    ///< ModifyPageFlags fixed cost
    Duration modifyFlagsPerPage; ///< per page touched
    Duration getAttrBase;        ///< GetPageAttributes fixed cost
    Duration getAttrPerPage;     ///< per page reported
    Duration mapInstall;         ///< page-table/TLB entry install, per page
    Duration bindRegion;         ///< BindRegion bookkeeping

    // --- manager work ------------------------------------------------
    Duration managerAlloc; ///< free-page-segment bookkeeping per fault

    // --- data movement -----------------------------------------------
    Duration copyPerKB;     ///< memory-to-memory copy
    Duration pageZeroPerKB; ///< zero-fill (security) per KB

    // --- V++ cached-file (UIO) block interface ------------------------
    Duration uioLookup;     ///< block lookup in cached-file segment
    Duration uioWriteExtra; ///< write-side bookkeeping delta

    // --- "Ultrix" baseline-specific path costs ------------------------
    Duration bKernelFaultWork; ///< in-kernel fault service, excl. zeroing
    Duration bMapInstall;      ///< baseline page-table install
    Duration bSignalDeliver;   ///< kernel -> user signal delivery
    Duration bSigreturn;       ///< sigreturn path
    Duration bMprotect;        ///< mprotect syscall
    Duration bFileLookup;      ///< buffer-cache lookup for read/write
    Duration bWriteExtra;      ///< baseline write-path block handling
};

/** Whole-machine description. */
struct MachineConfig
{
    CostModel cost;

    std::uint32_t pageSize;    ///< base page / frame granule, bytes
    std::uint64_t memoryBytes; ///< physical memory size
    int ncpus;                 ///< processors
    double mips;               ///< per-CPU instruction rate, millions/s

    bool modelTlb;                ///< account TLB hits/misses in touch
    std::uint32_t tlbEntries;     ///< R3000: 64 fully-associative
    Duration tlbRefill;           ///< kernel TLB-miss handler cost

    std::uint32_t ioUnit;         ///< kernel file I/O transfer unit
    Duration diskLatency;         ///< average positioning latency
    double diskBandwidthMBps;     ///< sustained transfer rate
    bool resumeThroughKernel;     ///< true on 680x0-style CPUs
    ManagerMode defaultMgrMode;   ///< how the default manager runs

    /**
     * How fault batches form, and nothing else. On: faults park on
     * their manager's queue, and those raised at the same simulated
     * instant share one crossing (one faultDispatch plus one upcall or
     * IPC round trip per batch). Off (the default): each fault is
     * delivered inline as a batch of one, so the per-fault charge
     * timeline and every committed determinism golden are the classic
     * ones. Either way delivery composes with a ResiliencePolicy and
     * fault injection.
     */
    bool faultCoalescing = false;

    /**
     * Frames per SPCM replenish request — the one knob behind every
     * manager's allocation batching. GenericSegmentManager asks for
     * exactly this many; the default manager (UCDS), whose append
     * workloads are batchier, asks for 2x unless its params override
     * it. Tenant-scaling sweeps vary this single value instead of the
     * two independently-tuned constants it replaced (generic 32,
     * UCDS 64 — both preserved by the default).
     */
    std::uint64_t mgrRequestBatch = 32;

    /**
     * Replacement policy driving the default manager's clockPass
     * (src/policy). Clock — the default — reproduces the historical
     * hard-wired sampling clock byte-identically; SLRU/2Q/WSClock
     * swap in their own victim order; Belady cannot run online and
     * makes manager construction throw (it exists for trace-replay
     * harnesses).
     */
    policy::Kind replacementPolicy = policy::Kind::Clock;

    std::uint64_t frames() const { return memoryBytes / pageSize; }

    /** Simulated time to execute @p n instructions on one CPU. */
    Duration
    instructions(double n) const
    {
        return static_cast<Duration>(n / mips * 1e3);
    }
};

/** DECstation 5000/200 preset (paper sections 3.1-3.2). */
MachineConfig decstation5000_200();

/** SGI 4D/380 preset (paper section 3.3). */
MachineConfig sgi4d380();

} // namespace vpp::hw

#endif // VPP_HW_CONFIG_H
