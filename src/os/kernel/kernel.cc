#include "os/kernel/kernel.hh"

#include "cpu/exec_model.hh"
#include "sim/counters/counters.hh"
#include "sim/logging.hh"
#include "sim/sampling/sampler.hh"
#include "sim/spantrace/spantrace.hh"
#include "sim/trace.hh"

namespace aosd
{

KernelWindowCosts
kernelWindowCosts(const MachineDesc &machine)
{
    const PrimitiveCostDb &db = sharedCostDb();
    KernelWindowCosts c;
    c.syscallCycles = db.cycles(machine.id, Primitive::NullSyscall);
    c.trapCycles = db.cycles(machine.id, Primitive::Trap);
    c.switchCycles = db.cycles(machine.id, Primitive::ContextSwitch);
    c.pteChangeCycles = db.cycles(machine.id, Primitive::PteChange);
    c.emulInstrCycles = emulatedInstrCycles;
    c.emulTasCycles = emulatedTasCycles(machine);
    return c;
}

SimKernel::SimKernel(const MachineDesc &machine)
    : desc(machine), costs(sharedCostDb()),
      tasCycles(emulatedTasCycles(machine)),
      pageFlushLines(machine.cache.indexing == CacheIndexing::Virtual
                         ? pageBytes / machine.cache.lineBytes
                         : 0),
      switchFlushLines(machine.cache.indexing == CacheIndexing::Virtual &&
                               machine.cache.flushOnContextSwitch
                           ? machine.cache.lineCount()
                           : 0),
      switchFlushCycles(switchFlushLines * machine.cache.flushLineCycles),
      tlbModel(machine.tlb)
{
    for (Primitive p : allPrimitives)
        primCost[static_cast<std::size_t>(p)] = &costs.cost(desc.id, p);
    // Space 0 is the kernel itself; its working set models the mapped
    // kernel data (page tables and the like) that still needs TLB
    // entries even when kernel *code* runs unmapped (s5).
    spaces.push_back(
        std::make_unique<AddressSpace>("kernel", 0, desc));
    kernelSpace().setWorkingSet(0x800, 8);
}

AddressSpace &
SimKernel::createSpace(const std::string &name)
{
    Asid asid = nextAsid++;
    if (desc.tlb.processIdTags && desc.tlb.pidCount > 0) {
        // ASIDs wrap on real hardware; recycling one forces a purge of
        // its stale translations. ASID 0 is the kernel's own and is
        // never handed out.
        if (asid >= desc.tlb.pidCount) {
            Asid wrapped = asid % desc.tlb.pidCount;
            asid = wrapped == 0 ? 1 : wrapped;
            tlbModel.invalidateAsid(asid);
            countEvent(HwCounter::AsidRollovers);
        }
    }
    spaces.push_back(std::make_unique<AddressSpace>(name, asid, desc));
    return *spaces.back();
}

AddressSpace &
SimKernel::currentSpace()
{
    return *spaces[currentIdx];
}

void
SimKernel::chargePrimitive(Primitive p)
{
    const PrimitiveCost &pc = *primCost[static_cast<std::size_t>(p)];
    // Attribute the cached handler simulation phase by phase, so a
    // kernel-level profile bottoms out in the same hardware causes
    // (trap_hardware, write_buffer_stall, ...) the exec model charged.
    if (profilerEnabled()) {
        for (const PhaseResult &ph : pc.detail.phases) {
            ProfScope scope(phaseSlug(ph.kind));
            profileBreakdown(ph.breakdown);
        }
    }
    // Same per-phase detail for an open request's span tree: the
    // leaves ExecModel::run would emit for this handler.
    if (spantraceEnabled()) {
        for (const PhaseResult &ph : pc.detail.phases)
            spanLeaf(phaseSlug(ph.kind), ph.cycles);
    }
    cycleCount += pc.cycles;
    primCycles += pc.cycles;
}

bool
SimKernel::batchActive() const
{
    return !tracerEnabled() && !spantraceEnabled();
}

inline void
SimKernel::chargePrimitiveBatch(const char *scope, Primitive p,
                                std::uint64_t n)
{
    const PrimitiveCost &pc = *primCost[static_cast<std::size_t>(p)];
    if (profilerEnabled()) {
        // Replay the per-event attribution in closed form: the outer
        // scope and each phase entered n times, every cause leaf
        // charged its per-event constant × n, and every histogram fed
        // n copies of the per-event value — the same nodes in the
        // same creation order as n per-event invocations.
        Profiler &prof = Profiler::instance();
        ProfNode *outer = prof.pushRepeated(scope, n);
        Cycles outer_each = 0;
        for (const PhaseResult &ph : pc.detail.phases) {
            ProfNode *pn = prof.pushRepeated(phaseSlug(ph.kind), n);
            profileBreakdownRepeated(ph.breakdown, n);
            Cycles each = ph.breakdown.total();
            prof.popRepeated(pn, each, n);
            outer_each += each;
        }
        prof.popRepeated(outer, outer_each, n);
    }
    cycleCount += pc.cycles * n;
    primCycles += pc.cycles * n;
}

inline void
SimKernel::batchScopedPrimitive(const char *scope, Primitive p,
                                std::uint64_t &count, HwCounter event,
                                std::uint64_t n, bool sample_each)
{
    const PrimitiveCost &pc = *primCost[static_cast<std::size_t>(p)];
    const Cycles start = cycleCount;
    const Cycles prim_start = primCycles;
    count += n;
    countEvent(event, n);
    chargePrimitiveBatch(scope, p, n);
    if (sample_each) {
        CounterSet per;
        per.set(event, 1);
        CounterSampler::instance().tickRun(start, pc.cycles, n, per,
                                           prim_start, pc.cycles);
    }
}

void
SimKernel::syscallBatch(std::uint64_t n, bool sample_each)
{
    if (n == 0)
        return;
    if (!batchActive()) {
        for (std::uint64_t i = 0; i < n; ++i) {
            syscall();
            if (sample_each)
                CounterSampler::instance().tick(
                    cycleCount, static_cast<double>(primCycles));
        }
        return;
    }
    batchScopedPrimitive("syscall", Primitive::NullSyscall,
                         tally.syscalls, HwCounter::KernelSyscalls, n,
                         sample_each);
}

void
SimKernel::trapBatch(std::uint64_t n, bool sample_each)
{
    if (n == 0)
        return;
    if (!batchActive()) {
        for (std::uint64_t i = 0; i < n; ++i) {
            trap();
            if (sample_each)
                CounterSampler::instance().tick(
                    cycleCount, static_cast<double>(primCycles));
        }
        return;
    }
    batchScopedPrimitive("trap", Primitive::Trap, tally.traps,
                         HwCounter::KernelTraps, n, sample_each);
}

void
SimKernel::otherExceptionBatch(std::uint64_t n, bool sample_each)
{
    if (n == 0)
        return;
    if (!batchActive()) {
        for (std::uint64_t i = 0; i < n; ++i) {
            otherException();
            if (sample_each)
                CounterSampler::instance().tick(
                    cycleCount, static_cast<double>(primCycles));
        }
        return;
    }
    batchScopedPrimitive("exception", Primitive::Trap,
                         tally.otherExceptions, HwCounter::KernelTraps,
                         n, sample_each);
}

void
SimKernel::threadSwitchBatch(std::uint64_t n, bool sample_each)
{
    if (n == 0)
        return;
    if (!batchActive()) {
        for (std::uint64_t i = 0; i < n; ++i) {
            threadSwitch();
            if (sample_each)
                CounterSampler::instance().tick(
                    cycleCount, static_cast<double>(primCycles));
        }
        return;
    }
    batchScopedPrimitive("thread_switch", Primitive::ContextSwitch,
                         tally.threadSwitches,
                         HwCounter::ThreadSwitches, n, sample_each);
}

void
SimKernel::emulateTestAndSetBatch(std::uint64_t n, bool sample_each)
{
    if (n == 0)
        return;
    if (!batchActive()) {
        for (std::uint64_t i = 0; i < n; ++i) {
            emulateTestAndSet();
            if (sample_each)
                CounterSampler::instance().tick(
                    cycleCount, static_cast<double>(primCycles));
        }
        return;
    }
    const Cycles start = cycleCount;
    const Cycles prim_start = primCycles;
    tally.emulatedInstrs += n;
    countEvent(HwCounter::EmulatedInstrs, n);
    countEvent(HwCounter::EmulatedTasOps, n);
    cycleCount += tasCycles * n;
    primCycles += tasCycles * n;
    if (profilerEnabled())
        Profiler::instance().addLeafCyclesRepeated(
            "emulated_test_and_set", tasCycles, n);
    if (sample_each) {
        CounterSet per;
        per.set(HwCounter::EmulatedInstrs, 1);
        per.set(HwCounter::EmulatedTasOps, 1);
        CounterSampler::instance().tickRun(start, tasCycles, n, per,
                                           prim_start, tasCycles);
    }
}

void
SimKernel::emulateSingleInstructionsBatch(std::uint64_t n,
                                          bool sample_each)
{
    if (n == 0)
        return;
    if (!batchActive()) {
        for (std::uint64_t i = 0; i < n; ++i) {
            emulateInstructions(1);
            if (sample_each)
                CounterSampler::instance().tick(
                    cycleCount, static_cast<double>(primCycles));
        }
        return;
    }
    const Cycles start = cycleCount;
    const Cycles prim_start = primCycles;
    tally.emulatedInstrs += n;
    countEvent(HwCounter::EmulatedInstrs, n);
    cycleCount += emulatedInstrCycles * n;
    primCycles += emulatedInstrCycles * n;
    if (profilerEnabled())
        Profiler::instance().addLeafCyclesRepeated(
            "emulate_instr", emulatedInstrCycles, n);
    if (sample_each) {
        CounterSet per;
        per.set(HwCounter::EmulatedInstrs, 1);
        CounterSampler::instance().tickRun(start, emulatedInstrCycles,
                                           n, per, prim_start,
                                           emulatedInstrCycles);
    }
}

void
SimKernel::pteChangeBatch(AddressSpace &space,
                          const std::vector<Vpn> &vpns, PageProt prot)
{
    if (vpns.empty())
        return;
    if (!batchActive()) {
        for (Vpn vpn : vpns)
            pteChange(space, vpn, prot);
        return;
    }
    const auto n = static_cast<std::uint64_t>(vpns.size());
    tally.pteChanges += n;
    countEvent(HwCounter::PteChanges, n);
    chargePrimitiveBatch("pte_change", Primitive::PteChange, n);
    countEvent(HwCounter::CacheFlushLines, pageFlushLines * n);
    // Stepped state edits at the batch boundary: each page's PTE and
    // TLB shootdown. These only mutate state and bump their own
    // counters — no cycles, no attribution — so running them after
    // the aggregate charge leaves every observable total equal to the
    // interleaved loop's. pageTable() empties the space's walk memo
    // and nothing in the loop refills it, so one call per batch
    // leaves the memo as a call per page would.
    PageTable &table = space.pageTable();
    const Asid asid = space.asid();
    for (Vpn vpn : vpns) {
        table.protect(vpn, prot);
        tlbModel.invalidate(vpn, asid);
    }
}

void
SimKernel::syscall()
{
    ProfScope prof("syscall");
    SpanScope span("syscall", cycleCount);
    ++tally.syscalls;
    countEvent(HwCounter::KernelSyscalls);
    Cycles start = cycleCount;
    chargePrimitive(Primitive::NullSyscall);
    if (tracerEnabled())
        Tracer::instance().complete(start, cycleCount - start,
                                    TraceEvent::Syscall, "syscall");
}

void
SimKernel::trap()
{
    ProfScope prof("trap");
    SpanScope span("trap", cycleCount);
    ++tally.traps;
    countEvent(HwCounter::KernelTraps);
    Cycles start = cycleCount;
    if (tracerEnabled())
        Tracer::instance().recordAt(start, TraceEvent::TrapEnter,
                                    TracePhase::Begin, "trap");
    chargePrimitive(Primitive::Trap);
    if (tracerEnabled())
        Tracer::instance().recordAt(cycleCount, TraceEvent::TrapExit,
                                    TracePhase::End, "trap");
}

void
SimKernel::pteChange(AddressSpace &space, Vpn vpn, PageProt prot)
{
    ProfScope prof("pte_change");
    SpanScope span("pte_change", cycleCount);
    ++tally.pteChanges;
    countEvent(HwCounter::PteChanges);
    chargePrimitive(Primitive::PteChange);
    space.pageTable().protect(vpn, prot);
    tlbModel.invalidate(vpn, space.asid());
    // Virtually-addressed caches must also drop the page's lines; the
    // simulated primitive already charges the machine's sweep cost
    // (i860: 536 of 559 instructions), so only the lines are counted.
    if (pageFlushLines) {
        countEvent(HwCounter::CacheFlushLines, pageFlushLines);
        if (tracerEnabled())
            Tracer::instance().instant(TraceEvent::CacheFlush,
                                       "cache_flush_page",
                                       pageFlushLines);
    }
}

void
SimKernel::contextSwitchTo(AddressSpace &target)
{
    AddressSpace &from = currentSpace();
    if (&target == &from)
        return;
    ProfScope prof("context_switch");
    SpanScope span("context_switch", cycleCount);
    ++tally.addrSpaceSwitches;
    countEvent(HwCounter::ContextSwitches);
    // An address-space switch implies a thread switch (Table 7 note).
    ++tally.threadSwitches;
    countEvent(HwCounter::ThreadSwitches);
    if (tracerEnabled())
        Tracer::instance().recordAt(cycleCount,
                                    TraceEvent::ContextSwitch,
                                    TracePhase::Begin,
                                    "context_switch");
    chargePrimitive(Primitive::ContextSwitch);

    Cycles purge = tlbModel.switchContext();
    cycleCount += purge;
    primCycles += purge;
    if (purge) {
        countEvent(HwCounter::TlbPurgeCycles, purge);
        if (profilerEnabled())
            Profiler::instance().addLeafCycles("tlb_purge", purge);
        spanLeaf("tlb_purge", purge);
    }

    if (switchFlushLines) {
        countEvent(HwCounter::CacheFlushLines, switchFlushLines);
        if (tracerEnabled())
            Tracer::instance().instant(TraceEvent::CacheFlush,
                                       "cache_flush_all",
                                       switchFlushLines);
        cycleCount += switchFlushCycles;
        primCycles += switchFlushCycles;
        countEvent(HwCounter::CacheFlushCycles, switchFlushCycles);
        if (profilerEnabled())
            Profiler::instance().addLeafCycles("cache_flush",
                                               switchFlushCycles);
        spanLeaf("cache_flush", switchFlushCycles);
    }

    for (std::size_t i = 0; i < spaces.size(); ++i) {
        if (spaces[i].get() == &target) {
            currentIdx = i;
            touchWorkingSet();
            if (tracerEnabled())
                Tracer::instance().recordAt(cycleCount,
                                            TraceEvent::ContextSwitch,
                                            TracePhase::End,
                                            "context_switch");
            return;
        }
    }
    panic("switch to a space this kernel does not own");
}

void
SimKernel::threadSwitch()
{
    ProfScope prof("thread_switch");
    SpanScope span("thread_switch", cycleCount);
    ++tally.threadSwitches;
    countEvent(HwCounter::ThreadSwitches);
    Cycles start = cycleCount;
    chargePrimitive(Primitive::ContextSwitch);
    if (tracerEnabled())
        Tracer::instance().complete(start, cycleCount - start,
                                    TraceEvent::ThreadSwitch,
                                    "thread_switch");
}

void
SimKernel::emulateInstructions(std::uint64_t n)
{
    tally.emulatedInstrs += n;
    countEvent(HwCounter::EmulatedInstrs, n);
    // Each emulated instruction decodes and interprets in the kernel:
    // a handful of cycles beyond the trap that delivered it.
    if (tracerEnabled())
        Tracer::instance().recordAt(cycleCount,
                                    TraceEvent::EmulatedInstr,
                                    TracePhase::Instant, "emulate", n);
    const Cycles c = n * emulatedInstrCycles;
    cycleCount += c;
    primCycles += c;
    if (profilerEnabled())
        Profiler::instance().addLeafCycles("emulate_instr", c);
    spanLeaf("emulate_instr", c);
}

void
SimKernel::emulateTestAndSet()
{
    ++tally.emulatedInstrs;
    countEvent(HwCounter::EmulatedInstrs);
    countEvent(HwCounter::EmulatedTasOps);
    // A dedicated fast trap vector: hardware entry/exit plus a short
    // interrupts-disabled test-and-set sequence (~80 cycles), much
    // cheaper than the general trap path but far dearer than an
    // atomic instruction would be.
    cycleCount += tasCycles;
    primCycles += tasCycles;
    if (profilerEnabled())
        Profiler::instance().addLeafCycles("emulated_test_and_set",
                                           tasCycles);
    spanLeaf("emulated_test_and_set", tasCycles);
}

void
SimKernel::otherException()
{
    ProfScope prof("exception");
    SpanScope span("exception", cycleCount);
    ++tally.otherExceptions;
    countEvent(HwCounter::KernelTraps);
    Cycles start = cycleCount;
    chargePrimitive(Primitive::Trap);
    if (tracerEnabled())
        Tracer::instance().complete(start, cycleCount - start,
                                    TraceEvent::TrapEnter, "exception");
}

void
SimKernel::touchPages(const std::vector<Vpn> &pages, bool kernel_space)
{
    AddressSpace &space =
        kernel_space ? kernelSpace() : currentSpace();
    ProfScope prof("tlb_refill");
    const Cycles span_start = cycleCount;
    const bool tracing = tracerEnabled();
    const bool profiling = profilerEnabled();
    if (tracing)
        Tracer::instance().setCycle(cycleCount);
    const Asid asid = space.asid();
    // A miss's refill cycles land before its fill, so a traced
    // tlb_fill carries the cycle after the refill.
    auto charge = [&](Cycles c, const char *leaf, std::uint64_t &misses) {
        cycleCount += c;
        primCycles += c;
        if (profiling)
            Profiler::instance().addLeafCycles(leaf, c);
        if (tracing)
            Tracer::instance().setCycle(cycleCount);
        ++misses;
    };
    std::uint64_t &miss_count =
        kernel_space ? tally.kernelTlbMisses : tally.userTlbMisses;
    const char *miss_leaf = kernel_space ? "miss_kernel" : "miss_user";
    for (Vpn vpn : pages) {
        const bool hit =
            tlbModel.touch(vpn, asid, kernel_space, [&](Cycles c) {
                charge(c, miss_leaf, miss_count);
                const Pte *walked = space.translate(vpn);
                return walked ? TlbFill{walked->pfn, walked->prot}
                              : TlbFill{vpn, {}};
            });
        // Refilling from a *mapped* page table makes the walk itself
        // reference kernel space: possible second-level miss (s5:
        // "Page tables, for instance, remain mapped in kernel mode;
        // TLB entries are needed to map the page tables themselves").
        if (hit || kernel_space)
            continue;
        // Each address space has its own kernel-mapped table pages;
        // more spaces means more table pages competing for TLB
        // entries.
        const Vpn table_page = 0x800 + asid + ((vpn >> 10) % 2);
        tlbModel.touch(table_page, 0, true, [&](Cycles c) {
            charge(c, "miss_page_table", tally.kernelTlbMisses);
            return TlbFill{table_page, {}};
        });
    }
    if (cycleCount > span_start)
        spanLeaf("tlb_refill", cycleCount - span_start);
}

void
SimKernel::touchWorkingSet()
{
    touchPages(currentSpace().workingSet(), false);
}

void
SimKernel::chargeMicros(double us)
{
    Cycles c = desc.clock.microsToCycles(us);
    cycleCount += c;
    if (profilerEnabled())
        Profiler::instance().addCycles(c);
}

void
SimKernel::runUserCode(std::uint64_t instructions)
{
    // Application instruction throughput scales with the machine's
    // integer performance; normalize so the CVAX retires one
    // instruction per ~1.4 cycles.
    double cpi = 1.4 / desc.appPerfVsCvax *
                 (desc.clock.mhz() / 11.1);
    auto c = static_cast<Cycles>(instructions * cpi + 0.5);
    cycleCount += c;
    if (profilerEnabled())
        Profiler::instance().addLeafCycles("user_code", c);
}

double
SimKernel::elapsedMicros() const
{
    return desc.clock.cyclesToMicros(cycleCount);
}

void
SimKernel::resetAccounting()
{
    cycleCount = 0;
    primCycles = 0;
    tally = {};
}

} // namespace aosd
