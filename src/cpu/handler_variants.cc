#include "cpu/handler_variants.hh"

#include "cpu/handlers.hh"
#include "sim/logging.hh"

namespace aosd
{

namespace
{

/** 88000 syscall without the pipeline-state save/restore: a voluntary
 *  trap has no outstanding faults to find (s2.5). */
HandlerProgram
m88kSyscallLazy()
{
    HandlerProgram p{Primitive::NullSyscall, {}};

    InstrStream entry;
    entry.trapEnter(false);
    entry.alu(2).nop(1);
    entry.trapReturn();

    // Only the PSR and shadow registers are touched; the 18
    // pipeline-state read/spill pairs disappear.
    InstrStream prep;
    prep.ctrlRead(3);
    prep.store(6);
    prep.alu(16);
    prep.branch(6);
    prep.load(6);
    prep.ctrlWrite(3);
    prep.nop(8);

    InstrStream ccall;
    ccall.branch(2).nop(2);
    ccall.store(6);
    ccall.alu(2);
    ccall.load(4);

    p.phases = {{PhaseKind::KernelEntryExit, entry},
                {PhaseKind::CallPrep, prep},
                {PhaseKind::CCallReturn, ccall}};
    return p;
}

/** SPARC syscall where hardware takes a window fault ahead of the
 *  call when (and only when) a frame is missing: the handler neither
 *  emulates the check nor copies parameters around an interposed
 *  frame (s2.5). The residual window cost is the amortized real
 *  fault: one spill roughly every third call. */
HandlerProgram
sparcSyscallPreflight(const MachineDesc &m)
{
    HandlerProgram p{Primitive::NullSyscall, {}};

    InstrStream entry;
    entry.trapEnter(false);
    entry.alu(2).branch(1);
    entry.trapReturn();

    InstrStream prep;
    prep.ctrlRead(2);
    prep.alu(6);
    prep.branch(3);
    // Amortized hardware window fault (~1 in 3 calls spills):
    // charge a third of the spill sequence as pure latency.
    InstrStream spill = sparcWindowSaveSeq(m);
    prep.hwDelay(40); // ~(spill cost)/3
    (void)spill;
    prep.store(4);  // machine state save only
    prep.nop(6);
    prep.alu(20);   // window pointer bookkeeping, much reduced
    prep.load(4, true);
    prep.ctrlWrite(2);
    prep.alu(8);
    prep.branch(2);

    InstrStream ccall;
    ccall.branch(2).nop(2);
    ccall.alu(6);
    ccall.store(2);
    ccall.load(2);

    p.phases = {{PhaseKind::KernelEntryExit, entry},
                {PhaseKind::CallPrep, prep},
                {PhaseKind::CCallReturn, ccall}};
    return p;
}

/** R2000 syscall through a dedicated vector: no cause-decode ladder,
 *  fewer control-register reads (the utlbmiss treatment, s2.3). */
HandlerProgram
mipsSyscallVectored()
{
    HandlerProgram p{Primitive::NullSyscall, {}};

    InstrStream entry;
    entry.trapEnter(false);
    entry.alu(1).nop(1);
    entry.trapReturn();

    InstrStream prep;
    prep.ctrlRead(1); // epc only; the vector implies the cause
    prep.branch(1);
    prep.alu(9);
    prep.load(1);
    prep.store(16);
    prep.nop(6);
    prep.ctrlWrite(2);
    prep.load(16);

    InstrStream ccall;
    ccall.branch(1).nop(1);
    ccall.store(3);
    ccall.alu(4);
    ccall.alu(2);
    ccall.load(3);
    ccall.branch(1).nop(1);
    ccall.alu(2);

    p.phases = {{PhaseKind::KernelEntryExit, entry},
                {PhaseKind::CallPrep, prep},
                {PhaseKind::CCallReturn, ccall}};
    return p;
}

/** i860 trap when hardware reports the faulting address: the
 *  26-instruction instruction-interpretation sequence disappears
 *  (s3.1), replaced by one control-register read. */
HandlerProgram
i860TrapWithFaultReg()
{
    HandlerProgram p{Primitive::Trap, {}};
    InstrStream body;
    body.trapEnter(false);
    body.fpuSync(16);
    body.store(30);
    body.load(30);
    body.ctrlRead(1); // the fault-address register
    body.ctrlRead(6);
    body.ctrlWrite(6);
    body.store(12);
    body.load(12);
    body.alu(20);
    body.nop(12);
    body.trapReturn();
    p.phases = {{PhaseKind::Body, body}};
    return p;
}

/** i860 context switch with a context-tagged virtual cache: no flush
 *  loop (s3.2). */
HandlerProgram
i860ContextSwitchTagged()
{
    HandlerProgram p{Primitive::ContextSwitch, {}};
    InstrStream body;
    body.ctrlRead(16);
    body.ctrlWrite(17); // +1: write the context register
    body.store(32);
    body.load(32);
    body.alu(10);
    body.branch(8);
    body.nop(7);
    // Tagged TLB assumed alongside: no dirbase purge either.
    p.phases = {{PhaseKind::Body, body}};
    return p;
}

} // namespace

bool
archFixApplies(ArchFix fix, MachineId machine, Primitive prim)
{
    switch (fix) {
      case ArchFix::LazyPipelineCheck:
        return machine == MachineId::M88000 &&
               prim == Primitive::NullSyscall;
      case ArchFix::PreflightWindowFault:
        return machine == MachineId::SPARC &&
               prim == Primitive::NullSyscall;
      case ArchFix::VectoredSyscalls:
        return (machine == MachineId::R2000 ||
                machine == MachineId::R3000) &&
               prim == Primitive::NullSyscall;
      case ArchFix::FaultAddressRegister:
        return machine == MachineId::I860 && prim == Primitive::Trap;
      case ArchFix::CacheContextTags:
        return machine == MachineId::I860 &&
               prim == Primitive::ContextSwitch;
    }
    return false;
}

HandlerProgram
buildImprovedHandler(const MachineDesc &machine, Primitive prim,
                     ArchFix fix)
{
    if (!archFixApplies(fix, machine.id, prim))
        return cachedHandler(machine, prim);
    switch (fix) {
      case ArchFix::LazyPipelineCheck:
        return m88kSyscallLazy();
      case ArchFix::PreflightWindowFault:
        return sparcSyscallPreflight(machine);
      case ArchFix::VectoredSyscalls:
        return mipsSyscallVectored();
      case ArchFix::FaultAddressRegister:
        return i860TrapWithFaultReg();
      case ArchFix::CacheContextTags:
        return i860ContextSwitchTagged();
    }
    panic("unhandled fix");
}

} // namespace aosd
