/**
 * @file
 * Umbrella header: the public API of the AOSD library.
 *
 * AOSD ("Architecture and Operating System Design") reproduces
 * Anderson, Levy, Bershad & Lazowska, "The Interaction of Architecture
 * and Operating System Design", ASPLOS 1991, as a simulation library:
 *
 *   - machine models of the paper's processors (arch/, cpu/, mem/),
 *   - an instrumented OS substrate (os/kernel, os/vm, os/ipc,
 *     os/threads) over a network model (net/),
 *   - workload engines for the paper's measurements (workload/), and
 *   - a high-level Study API (core/study.hh) that regenerates every
 *     table of the paper programmatically.
 */

#ifndef AOSD_CORE_AOSD_HH
#define AOSD_CORE_AOSD_HH

#include "arch/isa.hh"
#include "arch/machine_desc.hh"
#include "arch/machines.hh"
#include "core/study.hh"
#include "cpu/exec_model.hh"
#include "cpu/handler_variants.hh"
#include "cpu/handlers.hh"
#include "cpu/primitive_costs.hh"
#include "cpu/profiled_primitives.hh"
#include "mem/cache.hh"
#include "mem/page_table.hh"
#include "mem/phys_mem.hh"
#include "mem/tlb.hh"
#include "mem/write_buffer.hh"
#include "net/ethernet.hh"
#include "net/network.hh"
#include "os/ipc/binding.hh"
#include "os/ipc/lrpc.hh"
#include "os/ipc/message.hh"
#include "os/ipc/ports.hh"
#include "os/ipc/rpc.hh"
#include "os/ipc/rpc_sim.hh"
#include "os/ipc/urpc.hh"
#include "os/kernel/address_space.hh"
#include "os/kernel/kernel.hh"
#include "os/kernel/scheduler.hh"
#include "os/threads/activations.hh"
#include "os/threads/sync.hh"
#include "os/threads/thread.hh"
#include "os/threads/multiprocessor.hh"
#include "os/threads/thread_package.hh"
#include "os/vm/dsm.hh"
#include "os/vm/vm_clients.hh"
#include "os/vm/vm_manager.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/profile/profile.hh"
#include "sim/random.hh"
#include "sim/table.hh"
#include "sim/ticks.hh"
#include "workload/app_profile.hh"
#include "workload/os_model.hh"
#include "workload/ref_trace.hh"
#include "workload/synapse.hh"

#endif // AOSD_CORE_AOSD_HH
