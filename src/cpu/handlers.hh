/**
 * @file
 * Per-architecture handler programs for the four primitive OS operations
 * of Tables 1, 2 and 5.
 *
 * Each builder reconstructs the authors' hand-optimized assembler driver
 * for one machine as an InstrStream of micro-ops. The dynamic instruction
 * counts match Table 2 exactly (asserted by tests); cycle behaviour then
 * emerges from the execution model's memory-system state. Free parameters
 * (register save counts, op mixes) were chosen from the paper's prose:
 * see the comments on each builder.
 */

#ifndef AOSD_CPU_HANDLERS_HH
#define AOSD_CPU_HANDLERS_HH

#include "arch/isa.hh"
#include "arch/machine_desc.hh"

namespace aosd
{

/** Build the handler program for `prim` on `machine`. */
HandlerProgram buildHandler(const MachineDesc &machine, Primitive prim);

/**
 * buildHandler, memoized per thread: the figure/counter/profile grids
 * run the same (machine, primitive) program thousands of times, and
 * the instruction stream depends only on the MachineDesc, so rebuild-
 * ing it every rep is pure waste. The cache is keyed by (machine.id,
 * prim) and validated against a stored copy of the full desc, so
 * ablation studies that pass a *modified* desc under a stock id get a
 * fresh build (and replace the cached entry), never a stale program.
 * The cache is thread_local — each simulation slice memoizes
 * independently, no locks on the hot path.
 */
const HandlerProgram &cachedHandler(const MachineDesc &machine,
                                    Primitive prim);

/**
 * SPARC register-window spill sequence: pointer arithmetic plus 16
 * stores plus WIM bookkeeping (used inside syscall prep and context
 * switch; also reused by the user-level threads analysis in §4.1).
 */
InstrStream sparcWindowSaveSeq(const MachineDesc &machine);

/** SPARC register-window fill sequence (loads are cache-cold: the
 *  window memory was last touched by write-no-allocate stores). */
InstrStream sparcWindowRestoreSeq(const MachineDesc &machine);

/**
 * Software TLB-refill handler for a software-managed TLB (s3.2/s5:
 * the MIPS utlbmiss fast vector vs the few-hundred-cycle common
 * kernel path). The stream is built from stateless ops (trap
 * bracket, control-register reads, the TLB entry write, ALU address
 * arithmetic, microcoded residue) so its cycle total is a constant
 * equal to the machine's swUserMissCycles / swKernelMissCycles, the
 * constant the kernel charges per miss. Panics on a hardware-managed
 * TLB.
 */
InstrStream tlbRefillSeq(const MachineDesc &machine, bool kernel_space);

} // namespace aosd

#endif // AOSD_CPU_HANDLERS_HH
