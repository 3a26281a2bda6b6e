#include "os/kernel/kernel.hh"

#include <optional>

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

namespace
{

/**
 * What one event of a kind charges, counts and records. A priced event
 * (no `fixed`) opens a span `name` and charges `prim`'s cached
 * handler; a fixed-cost event is one span leaf `name` of
 * fixed(machine) cycles. Its trace records: one Complete, a Begin and
 * an End (`endEvent`), one Instant (arg: instructions), or none (Mark).
 */
struct EventRow
{
    const char *name;
    Primitive prim = Primitive::NullSyscall;
    Cycles (*fixed)(const MachineDesc &) = nullptr;
    std::uint64_t SimKernel::Counts::*count;
    HwCounter counter;
    /** A second counter each event bumps, or NumCounters. */
    HwCounter alsoCounter = HwCounter::NumCounters;
    TracePhase tracePhase = TracePhase::Complete;
    TraceEvent traceEvent = TraceEvent::Mark;
    TraceEvent endEvent = TraceEvent::Mark;
    /** The records' name, where it is not `name`. */
    const char *traceName = nullptr;
};

using Counts = SimKernel::Counts;

/** Indexed by KernelEvent. */
constexpr EventRow eventRows[] = {
    {.name = "syscall", .prim = Primitive::NullSyscall,
     .count = &Counts::syscalls, .counter = HwCounter::KernelSyscalls,
     .traceEvent = TraceEvent::Syscall},
    {.name = "trap", .prim = Primitive::Trap, .count = &Counts::traps,
     .counter = HwCounter::KernelTraps, .tracePhase = TracePhase::Begin,
     .traceEvent = TraceEvent::TrapEnter, .endEvent = TraceEvent::TrapExit},
    {.name = "exception", .prim = Primitive::Trap,
     .count = &Counts::otherExceptions, .counter = HwCounter::KernelTraps,
     .traceEvent = TraceEvent::TrapEnter},
    {.name = "thread_switch", .prim = Primitive::ContextSwitch,
     .count = &Counts::threadSwitches, .counter = HwCounter::ThreadSwitches,
     .traceEvent = TraceEvent::ThreadSwitch},
    // A fast trap vector plus a short interrupts-disabled sequence:
    // cheaper than a trap, far dearer than an atomic instruction.
    {.name = "emulated_test_and_set", .fixed = emulatedTasCycles,
     .count = &Counts::emulatedInstrs, .counter = HwCounter::EmulatedInstrs,
     .alsoCounter = HwCounter::EmulatedTasOps},
    // Each emulated instruction decodes and interprets in the kernel:
    // a handful of cycles beyond the trap that delivered it.
    {.name = "emulate_instr",
     .fixed = [](const MachineDesc &) { return emulatedInstrCycles; },
     .count = &Counts::emulatedInstrs, .counter = HwCounter::EmulatedInstrs,
     .tracePhase = TracePhase::Instant,
     .traceEvent = TraceEvent::EmulatedInstr, .traceName = "emulate"},
    {.name = "pte_change", .prim = Primitive::PteChange,
     .count = &Counts::pteChanges, .counter = HwCounter::PteChanges},
    {.name = "context_switch", .prim = Primitive::ContextSwitch,
     .count = &Counts::addrSpaceSwitches,
     .counter = HwCounter::ContextSwitches,
     .alsoCounter = HwCounter::ThreadSwitches,
     .tracePhase = TracePhase::Begin, .traceEvent = TraceEvent::ContextSwitch,
     .endEvent = TraceEvent::ContextSwitch},
};
static_assert(std::size(eventRows) ==
              static_cast<std::size_t>(KernelEvent::AddrSpaceSwitch) + 1);

/** The state edit of an event kind that has none. */
constexpr auto noEdit = [](std::uint64_t) {};

} // namespace

SimKernel::SimKernel(const MachineDesc &machine)
    : desc(machine),
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
        primCost[static_cast<std::size_t>(p)] =
            &sharedCostDb().cost(desc.id, p);
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

void
SimKernel::chargeLeaf(const char *leaf, Cycles c)
{
    cycleCount += c;
    primCycles += c;
    spanLeaf(leaf, c);
}

template <typename StateEdit>
void
SimKernel::chargeEvent(KernelEvent kind, std::uint64_t width,
                       StateEdit edit)
{
    const EventRow &r = eventRows[static_cast<std::size_t>(kind)];
    // The span opens before the counters move, so its counter delta
    // holds this event's bumps.
    std::optional<SpanScope> span;
    if (!r.fixed)
        span.emplace(r.name, cycleCount);
    tally.*r.count += width;
    countEvent(r.counter, width);
    if (r.alsoCounter != HwCounter::NumCounters)
        countEvent(r.alsoCounter, width);
    const Cycles start = cycleCount;
    // A record the edit emits (a PTE change's cache_flush_page) is
    // stamped at the event's start.
    if (tracerEnabled())
        Tracer::instance().setCycle(start);
    const bool tracing = tracerEnabled() && r.traceEvent != TraceEvent::Mark;
    const TracePhase phase = r.tracePhase;
    const char *trace_name = r.traceName ? r.traceName : r.name;
    if (tracing && phase != TracePhase::Complete)
        Tracer::instance().recordAt(
            start, r.traceEvent, phase, trace_name,
            phase == TracePhase::Instant ? width : 0);
    if (r.fixed) {
        chargeLeaf(r.name, width * r.fixed(desc));
    } else {
        // An open request gets the cached handler's span leaves phase
        // by phase, as ExecModel::run would emit them.
        const PrimitiveCost &pc = *primCost[static_cast<std::size_t>(r.prim)];
        for (const PhaseResult &ph : pc.detail.phases)
            spanLeaf(phaseSlug(ph.kind), ph.cycles);
        cycleCount += pc.cycles;
        primCycles += pc.cycles;
    }
    edit();
    if (tracing && phase == TracePhase::Complete)
        Tracer::instance().complete(start, cycleCount - start,
                                    r.traceEvent, trace_name);
    if (tracing && phase == TracePhase::Begin)
        Tracer::instance().recordAt(cycleCount, r.endEvent,
                                    TracePhase::End, trace_name);
}

template <typename StateEdit>
inline void
SimKernel::chargeEvents(KernelEvent kind, std::uint64_t n,
                        bool sample_each, StateEdit edit)
{
    if (n == 0)
        return;
    if (!batchActive()) {
        for (std::uint64_t i = 0; i < n; ++i) {
            chargeEvent(kind, 1, [&] { edit(i); });
            if (sample_each)
                CounterSampler::instance().tick(
                    cycleCount, static_cast<double>(primCycles));
        }
        return;
    }
    const EventRow &r = eventRows[static_cast<std::size_t>(kind)];
    const PrimitiveCost &pc = *primCost[static_cast<std::size_t>(r.prim)];
    const Cycles each = r.fixed ? r.fixed(desc) : pc.cycles;
    const Cycles start = cycleCount;
    const Cycles prim_start = primCycles;
    tally.*r.count += n;
    countEvent(r.counter, n);
    if (r.alsoCounter != HwCounter::NumCounters)
        countEvent(r.alsoCounter, n);
    cycleCount += each * n;
    primCycles += each * n;
    // The edits charge no cycles, so running them after the aggregate
    // charge leaves every total as the per-event bodies leave it.
    for (std::uint64_t i = 0; i < n; ++i)
        edit(i);
    if (sample_each) {
        CounterSet per;
        per.set(r.counter, 1);
        if (r.alsoCounter != HwCounter::NumCounters)
            per.set(r.alsoCounter, 1);
        CounterSampler::instance().tickRun(start, each, n, per,
                                           prim_start, each);
    }
}

void
SimKernel::syscall(std::uint64_t n, bool sample_each)
{
    chargeEvents(KernelEvent::Syscall, n, sample_each, noEdit);
}

void
SimKernel::trap(std::uint64_t n, bool sample_each)
{
    chargeEvents(KernelEvent::Trap, n, sample_each, noEdit);
}

void
SimKernel::otherException(std::uint64_t n, bool sample_each)
{
    chargeEvents(KernelEvent::Exception, n, sample_each, noEdit);
}

void
SimKernel::threadSwitch(std::uint64_t n, bool sample_each)
{
    chargeEvents(KernelEvent::ThreadSwitch, n, sample_each, noEdit);
}

void
SimKernel::emulateTestAndSet(std::uint64_t n, bool sample_each)
{
    chargeEvents(KernelEvent::EmulatedTas, n, sample_each, noEdit);
}

void
SimKernel::emulateSingleInstructions(std::uint64_t n, bool sample_each)
{
    chargeEvents(KernelEvent::EmulatedInstr, n, sample_each, noEdit);
}

void
SimKernel::emulateInstructions(std::uint64_t n)
{
    chargeEvent(KernelEvent::EmulatedInstr, n, [] {});
}

void
SimKernel::pteChange(AddressSpace &space, std::span<const Vpn> vpns,
                     PageProt prot)
{
    // pageTable() empties the space's walk memo and nothing here
    // refills it, so one call serves every page.
    PageTable &table = space.pageTable();
    const Asid asid = space.asid();
    auto edit = [&](std::uint64_t i) {
        table.protect(vpns[i], prot);
        tlbModel.invalidate(vpns[i], asid);
        if (pageFlushLines) {
            countEvent(HwCounter::CacheFlushLines, pageFlushLines);
            if (tracerEnabled())
                Tracer::instance().instant(TraceEvent::CacheFlush,
                                           "cache_flush_page",
                                           pageFlushLines);
        }
    };
    chargeEvents(KernelEvent::PteChange, vpns.size(), false, edit);
}

void
SimKernel::contextSwitchTo(AddressSpace &target)
{
    if (&target == &currentSpace())
        return;
    std::size_t to = 0;
    while (to < spaces.size() && spaces[to].get() != &target)
        ++to;
    if (to == spaces.size())
        panic("switch to a space this kernel does not own");
    chargeEvent(KernelEvent::AddrSpaceSwitch, 1, [&] {
        // An address-space switch implies a thread switch (Table 7
        // note); its row bumps the ThreadSwitches counter too.
        ++tally.threadSwitches;
        if (Cycles purge = tlbModel.switchContext()) {
            countEvent(HwCounter::TlbPurgeCycles, purge);
            chargeLeaf("tlb_purge", purge);
        }
        if (switchFlushLines) {
            countEvent(HwCounter::CacheFlushLines, switchFlushLines);
            if (tracerEnabled())
                Tracer::instance().instant(TraceEvent::CacheFlush,
                                           "cache_flush_all",
                                           switchFlushLines);
            countEvent(HwCounter::CacheFlushCycles, switchFlushCycles);
            chargeLeaf("cache_flush", switchFlushCycles);
        }
        currentIdx = to;
        touchWorkingSet();
    });
}

void
SimKernel::touchPages(const std::vector<Vpn> &pages, bool kernel_space)
{
    AddressSpace &space =
        kernel_space ? kernelSpace() : currentSpace();
    const Cycles span_start = cycleCount;
    const bool tracing = tracerEnabled();
    if (tracing)
        Tracer::instance().setCycle(cycleCount);
    const Asid asid = space.asid();
    // A miss's refill cycles land before its fill, so a traced
    // tlb_fill carries the cycle after the refill.
    auto charge = [&](Cycles c, std::uint64_t &misses) {
        cycleCount += c;
        primCycles += c;
        if (tracing)
            Tracer::instance().setCycle(cycleCount);
        ++misses;
    };
    std::uint64_t &miss_count =
        kernel_space ? tally.kernelTlbMisses : tally.userTlbMisses;
    for (Vpn vpn : pages) {
        const bool hit =
            tlbModel.touch(vpn, asid, kernel_space, [&](Cycles c) {
                charge(c, miss_count);
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
            charge(c, tally.kernelTlbMisses);
            return TlbFill{table_page, {}};
        });
    }
    if (cycleCount > span_start)
        spanLeaf("tlb_refill", cycleCount - span_start);
}

void
SimKernel::runUserCode(std::uint64_t instructions)
{
    // Application instruction throughput scales with the machine's
    // integer performance; normalize so the CVAX retires one
    // instruction per ~1.4 cycles.
    double cpi = 1.4 / desc.appPerfVsCvax *
                 (desc.clock.mhz() / 11.1);
    cycleCount += static_cast<Cycles>(instructions * cpi + 0.5);
}

} // namespace aosd
