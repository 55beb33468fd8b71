/**
 * @file
 * Umbrella header for the V++ external page-cache management library.
 *
 * Pulls in the public API of every module. Fine-grained includes are
 * preferred inside the library itself; applications can just:
 *
 *   #include "vpp.h"
 */

#ifndef VPP_H
#define VPP_H

// Simulation substrate
#include "sim/random.h"
#include "sim/resource.h"
#include "sim/simulation.h"
#include "sim/stats.h"
#include "sim/sync.h"
#include "sim/table.h"
#include "sim/task.h"
#include "sim/time.h"

// Machine model
#include "hw/cache_model.h"
#include "hw/config.h"
#include "hw/disk.h"
#include "hw/physmem.h"
#include "hw/tlb.h"
#include "hw/types.h"

// IPC
#include "ipc/cross.h"

// Fault injection
#include "inject/inject.h"

// The V++ kernel
#include "core/fault.h"
#include "core/kernel.h"
#include "core/manager.h"
#include "core/process.h"
#include "core/segment.h"
#include "core/types.h"

// File service
#include "uio/block_io.h"
#include "uio/file_server.h"

// Process-level managers
#include "managers/default_mgr.h"
#include "managers/generic.h"
#include "managers/market.h"
#include "managers/spcm.h"

// Application-specific managers
#include "appmgr/coloring_mgr.h"
#include "appmgr/db_mgr.h"
#include "appmgr/discard_mgr.h"
#include "appmgr/prefetch_mgr.h"
#include "appmgr/swap_mgr.h"

// Comparison baseline, workloads and the database study
#include "apps/stack.h"
#include "apps/workload.h"
#include "baseline/conventional_vm.h"
#include "db/lock.h"
#include "db/study.h"

#endif // VPP_H
