#include "cpu/exec_model.hh"

#include "cpu/handlers.hh"
#include "sim/counters/counters.hh"
#include "sim/logging.hh"
#include "sim/profile/profile.hh"
#include "sim/spantrace/spantrace.hh"
#include "sim/trace.hh"

namespace aosd
{

namespace
{

/** Attribute a breakdown's cycles to cause-named leaf children of the
 *  profiler's current scope ("base", "write_buffer_stall", ...). */
void
profileBreakdown(const CycleBreakdown &bd)
{
    if (!profilerEnabled())
        return;
    Profiler &p = Profiler::instance();
    auto add = [&](const char *cause, Cycles c) {
        if (c)
            p.addLeafCycles(cause, c);
    };
    add("base", bd.base);
    add("write_buffer_stall", bd.writeBufferStall);
    add("cache_miss_stall", bd.cacheMissStall);
    add("uncached", bd.uncached);
    add("ctrl_reg", bd.ctrlReg);
    add("microcode", bd.microcode);
    add("tlb_ops", bd.tlbOps);
    add("cache_maintenance", bd.cacheMaintenance);
    add("trap_hardware", bd.trapHardware);
    add("fpu_sync", bd.fpuSync);
}

} // namespace

CycleBreakdown &
CycleBreakdown::operator+=(const CycleBreakdown &o)
{
    base += o.base;
    writeBufferStall += o.writeBufferStall;
    cacheMissStall += o.cacheMissStall;
    uncached += o.uncached;
    ctrlReg += o.ctrlReg;
    microcode += o.microcode;
    tlbOps += o.tlbOps;
    cacheMaintenance += o.cacheMaintenance;
    trapHardware += o.trapHardware;
    fpuSync += o.fpuSync;
    return *this;
}

Cycles
ExecResult::phaseCycles(PhaseKind kind) const
{
    for (const auto &p : phases)
        if (p.kind == kind)
            return p.cycles;
    return 0;
}

ExecModel::ExecModel(const MachineDesc &machine)
    : desc(machine), writeBuffer(machine.writeBuffer)
{}

Cycles
ExecModel::chargeOp(const Op &op, Cycles now, CycleBreakdown &bd)
{
    switch (op.kind) {
      case OpKind::Alu:
      case OpKind::Nop:
        bd.base += 1;
        countEvent(HwCounter::IssueSlots);
        if (op.kind == OpKind::Nop)
            countEvent(HwCounter::Nops);
        return 1;

      case OpKind::Branch: {
        Cycles c = 1 + desc.timing.branchPenaltyCycles;
        bd.base += 1;
        bd.trapHardware += desc.timing.branchPenaltyCycles;
        countEvent(HwCounter::IssueSlots);
        countEvent(HwCounter::Branches);
        countEvent(HwCounter::InterlockCycles,
                   desc.timing.branchPenaltyCycles);
        return c;
      }

      case OpKind::Load: {
        if (op.uncached) {
            bd.uncached += desc.cache.uncachedCycles;
            countEvent(HwCounter::UncachedAccesses);
            return desc.cache.uncachedCycles;
        }
        Cycles c = 1;
        bd.base += 1;
        countEvent(HwCounter::IssueSlots);
        countEvent(HwCounter::Loads);
        if (desc.writeBuffer.readsWaitForDrain) {
            Cycles wait = writeBuffer.drainTime(now);
            c += wait;
            bd.writeBufferStall += wait;
            if (wait) {
                countEvent(HwCounter::WbReadWaits);
                countEvent(HwCounter::WbStallCycles, wait);
            }
        }
        if (op.coldMiss) {
            c += desc.cache.missPenaltyCycles;
            bd.cacheMissStall += desc.cache.missPenaltyCycles;
            countEvent(HwCounter::ColdMisses);
        }
        return c;
      }

      case OpKind::Store: {
        if (op.uncached) {
            bd.uncached += desc.cache.uncachedCycles;
            countEvent(HwCounter::UncachedAccesses);
            return desc.cache.uncachedCycles;
        }
        // The store itself issues in one cycle; it may stall waiting
        // for a write buffer slot.
        Cycles stall = writeBuffer.store(now + 1, op.samePage);
        bd.base += 1;
        bd.writeBufferStall += stall;
        countEvent(HwCounter::IssueSlots);
        countEvent(HwCounter::Stores);
        return 1 + stall;
      }

      case OpKind::TrapEnter:
        bd.trapHardware += desc.timing.trapEnterCycles;
        countEvent(HwCounter::TrapEnters);
        return desc.timing.trapEnterCycles;

      case OpKind::TrapReturn:
        bd.trapHardware += desc.timing.trapReturnCycles;
        countEvent(HwCounter::TrapReturns);
        return desc.timing.trapReturnCycles;

      case OpKind::CtrlRegRead:
      case OpKind::CtrlRegWrite:
        bd.ctrlReg += desc.timing.ctrlRegCycles;
        countEvent(HwCounter::CtrlRegAccesses);
        return desc.timing.ctrlRegCycles;

      case OpKind::TlbWrite:
        bd.tlbOps += desc.tlb.writeEntryCycles;
        countEvent(HwCounter::TlbWriteOps);
        return desc.tlb.writeEntryCycles;

      case OpKind::TlbProbe:
        bd.tlbOps += 3;
        countEvent(HwCounter::TlbProbeOps);
        return 3;

      case OpKind::TlbPurgeEntry:
        bd.tlbOps += desc.tlb.purgeEntryCycles;
        countEvent(HwCounter::TlbPurgeEntryOps);
        return desc.tlb.purgeEntryCycles;

      case OpKind::TlbPurgeAll:
        bd.tlbOps += desc.tlb.purgeAllCycles;
        countEvent(HwCounter::TlbPurgeAllOps);
        return desc.tlb.purgeAllCycles;

      case OpKind::CacheFlushLine:
        bd.cacheMaintenance += desc.cache.flushLineCycles;
        countEvent(HwCounter::CacheFlushLines);
        if (tracerEnabled())
            Tracer::instance().instant(TraceEvent::CacheFlush,
                                       "cache_flush_line", 1);
        return desc.cache.flushLineCycles;

      case OpKind::CacheFlushAll: {
        Cycles lines = desc.cache.lineCount();
        Cycles c = lines * desc.cache.flushLineCycles;
        bd.cacheMaintenance += c;
        countEvent(HwCounter::CacheFlushLines, lines);
        if (tracerEnabled())
            Tracer::instance().instant(TraceEvent::CacheFlush,
                                       "cache_flush_all", lines);
        return c;
      }

      case OpKind::Microcoded:
        bd.microcode += op.cycles;
        countEvent(HwCounter::MicrocodeOps);
        countEvent(HwCounter::MicrocodeCycles, op.cycles);
        return op.cycles;

      case OpKind::AtomicOp:
        // Interlocked ops bypass the cache and lock the bus.
        bd.uncached += desc.cache.uncachedCycles;
        countEvent(HwCounter::AtomicOps);
        return desc.cache.uncachedCycles;

      case OpKind::FpuSync:
        bd.fpuSync += op.cycles;
        countEvent(HwCounter::FpuSyncCycles, op.cycles);
        return op.cycles;

      case OpKind::WindowOverflowTrap:
        // Hardware-wise a trap entry; counted and traced as the
        // paper's SPARC cost driver it is.
        bd.trapHardware += desc.timing.trapEnterCycles;
        countEvent(HwCounter::WindowOverflows);
        countEvent(HwCounter::WindowsSpilled);
        if (tracerEnabled())
            Tracer::instance().instant(TraceEvent::WindowOverflow,
                                       "window_overflow");
        return desc.timing.trapEnterCycles;

      case OpKind::WindowUnderflowTrap:
        bd.trapHardware += desc.timing.trapEnterCycles;
        countEvent(HwCounter::WindowUnderflows);
        if (tracerEnabled())
            Tracer::instance().instant(TraceEvent::WindowUnderflow,
                                       "window_underflow");
        return desc.timing.trapEnterCycles;
    }
    panic("unknown op kind");
}

PhaseResult
ExecModel::runStream(const InstrStream &stream, Cycles start_cycle)
{
    PhaseResult result;
    Cycles now = start_cycle;
    for (const auto &op : stream.ops()) {
        for (std::uint32_t i = 0; i < op.count; ++i)
            now += chargeOp(op, now, result.breakdown);
        if (op.countsAsInstr) {
            result.instructions += op.count;
            countEvent(HwCounter::InstrRetired, op.count);
        }
    }
    result.cycles = now - start_cycle;
    profileBreakdown(result.breakdown);
    return result;
}

ExecResult
ExecModel::run(const HandlerProgram &program)
{
    writeBuffer.reset();
    ExecResult result;
    Cycles now = 0;
    for (const auto &phase : program.phases) {
        ProfScope prof(phaseSlug(phase.kind));
        PhaseResult pr = runStream(phase.code, now);
        pr.kind = phase.kind;
        now += pr.cycles;
        spanLeaf(phaseSlug(pr.kind), pr.cycles);
        if (tracerEnabled())
            Tracer::instance().completeHere(pr.cycles,
                                            TraceEvent::ExecPhase,
                                            phaseName(pr.kind),
                                            pr.instructions);
        result.instructions += pr.instructions;
        result.breakdown += pr.breakdown;
        result.phases.push_back(std::move(pr));
    }
    result.cycles = now;
    return result;
}

ExecResult
ExecModel::runPrimitive(Primitive prim)
{
    return run(cachedHandler(desc, prim));
}

} // namespace aosd
