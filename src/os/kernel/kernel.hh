/**
 * @file
 * The instrumented simulated kernel.
 *
 * SimKernel plays the role the authors' instrumented Mach kernels play
 * in §5: every primitive operation — system call, trap, address-space
 * context switch, thread switch, TLB miss, emulated instruction — is
 * both *charged* (simulated time advances by the machine's simulated
 * primitive cost) and *counted* (Table 7's columns). Higher layers
 * (IPC, VM, threads, the workload engine) drive the kernel; they never
 * invent costs of their own for these primitives.
 */

#ifndef AOSD_OS_KERNEL_KERNEL_HH
#define AOSD_OS_KERNEL_KERNEL_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/machine_desc.hh"
#include "cpu/primitive_costs.hh"
#include "mem/tlb.hh"
#include "os/kernel/address_space.hh"
#include "sim/counters/reconcile.hh"
#include "sim/profile/profile.hh"

namespace aosd
{

/** Interrupts-disabled test-and-set sequence of the kernel's emulated
 *  test&set fast trap, beyond the trap entry/exit hardware cost. */
inline constexpr Cycles emulatedTasSequenceCycles = 70;

/** Cycles of one emulated test&set fast trap on `machine`: trap
 *  entry and return hardware plus emulatedTasSequenceCycles. */
inline Cycles
emulatedTasCycles(const MachineDesc &machine)
{
    return machine.timing.trapEnterCycles +
           machine.timing.trapReturnCycles + emulatedTasSequenceCycles;
}

/** Per-emulated-instruction decode-and-interpret cost. */
inline constexpr Cycles emulatedInstrCycles = 4;

/** The per-event prices SimKernel charges on `machine`, for
 *  reconcileKernelWindow() over a workload window. */
KernelWindowCosts kernelWindowCosts(const MachineDesc &machine);

/**
 * One machine's kernel: time accounting + counting + TLB state, with
 * the §3.2 virtual-cache flushes charged as per-machine constants.
 * No kernel path references memory through a cache, so no cache line
 * is ever valid and every sweep — a page per PTE change, the whole
 * cache per switch when untagged — visits the same lines at the same
 * cost. A change that makes the kernel access a cache must bring the
 * cache state (a functional Cache) back.
 */
class SimKernel
{
  public:
    /** What the kernel counts: Table 7's columns plus the TLB misses
     *  and PTE changes beside them. */
    struct Counts
    {
        std::uint64_t syscalls = 0;
        std::uint64_t traps = 0;
        std::uint64_t addrSpaceSwitches = 0;
        std::uint64_t threadSwitches = 0;
        std::uint64_t emulatedInstrs = 0;
        std::uint64_t kernelTlbMisses = 0;
        std::uint64_t userTlbMisses = 0;
        std::uint64_t otherExceptions = 0;
        std::uint64_t pteChanges = 0;

        bool operator==(const Counts &) const = default;
    };

    explicit SimKernel(const MachineDesc &machine);

    const MachineDesc &machine() const { return desc; }

    // ---- address spaces -------------------------------------------
    /** Create a new address space (ASIDs recycle modulo the TLB's
     *  pidCount, as on real hardware). */
    AddressSpace &createSpace(const std::string &name);

    AddressSpace &currentSpace();

    /** The kernel's own space (mapped kernel data: page tables etc.). */
    AddressSpace &kernelSpace() { return *spaces.front(); }

    // ---- primitive operations (charge + count) --------------------
    /** Null system call overhead (kernel entry + call prep + C call). */
    void syscall();

    /** A trap/fault/interrupt through the common machinery. */
    void trap();

    /** Change one PTE and keep TLB/virtual cache consistent. */
    void pteChange(AddressSpace &space, Vpn vpn, PageProt prot);

    /** Full address-space context switch, including the hardware costs
     *  of the mapping change and any untagged-TLB/cache purges, plus
     *  the TLB refill of the target's working set. */
    void contextSwitchTo(AddressSpace &target);

    /** Kernel-thread switch within the current space (no mapping
     *  change; counted separately, cf. Table 7 footnote). */
    void threadSwitch();

    /** The kernel emulates `n` instructions on behalf of user code
     *  (e.g. test&set on the MIPS, §4.1/§5). */
    void emulateInstructions(std::uint64_t n);

    /** Fast-path kernel emulation of one interlocked test&set: a
     *  minimal trap that disables interrupts, tests and sets (§4.1:
     *  parthenon spends ~1/5 of its time synchronizing this way). */
    void emulateTestAndSet();

    /** An interrupt or page fault ("other exceptions" in Table 7). */
    void otherException();

    /** Count an "other exception" whose entry the caller already
     *  charged through trap() (a VM fault), without charging it again. */
    void countOtherException() { ++tally.otherExceptions; }

    // ---- batched primitive operations -----------------------------
    // Each *Batch(n) charges `n` back-to-back invocations of its
    // per-event counterpart in one closed-form update: cycles and
    // HwCounters as the cached per-event constants × n, profiler
    // entries/self-cycles/histograms via the sampleN batch updates,
    // sampler boundaries via CounterSampler::tickRun — byte-identical
    // to the per-event loop in every JSON document. While a per-event
    // observer is watching (the tracer on, or an open span-traced
    // request) they run that per-event loop instead.
    // `sample_each` reproduces the workload drivers' per-event
    //   CounterSampler::tick(elapsedCycles(), primitiveCycles())
    // after every event.

    void syscallBatch(std::uint64_t n, bool sample_each = false);
    void trapBatch(std::uint64_t n, bool sample_each = false);
    void otherExceptionBatch(std::uint64_t n,
                             bool sample_each = false);
    void threadSwitchBatch(std::uint64_t n, bool sample_each = false);
    void emulateTestAndSetBatch(std::uint64_t n,
                                bool sample_each = false);

    /** n × emulateInstructions(1) — one per-instruction histogram
     *  sample each, *not* emulateInstructions(n), which folds the
     *  whole run into a single attribution event. */
    void emulateSingleInstructionsBatch(std::uint64_t n,
                                        bool sample_each = false);

    /** Batch-charge one pteChange per VPN, then step the per-page
     *  state edits (PTE protection, TLB shootdown, virtual-cache
     *  flush) at the batch boundary. The state ops commute with the
     *  charges, so results equal the per-event loop's exactly. */
    void pteChangeBatch(AddressSpace &space,
                        const std::vector<Vpn> &vpns, PageProt prot);

    /** Batching applies right now: no per-event observer is
     *  watching. The tracer emits one record per event and an open
     *  span-traced request nests one node per invocation, so a run
     *  can only be coalesced while both are idle. */
    bool batchActive() const;

    // ---- memory references ----------------------------------------
    /**
     * Touch pages in the current space through the TLB, charging
     * refill costs on misses. `kernel_space` selects the slow
     * software-refill path (mapped kernel data) and counts toward
     * kernel TLB misses. Each page is one Tlb::touch() probe: a miss
     * charges its refill cycles and walks the page table inside the
     * refill callback, and a user miss then touches the kernel-mapped
     * page-table page the walk read, a second probe that may miss.
     */
    void touchPages(const std::vector<Vpn> &pages, bool kernel_space);

    /** Touch the current space's working set (after a switch). */
    void touchWorkingSet();

    // ---- direct charging ------------------------------------------
    /** Spend user/kernel computation time without counting anything.
     *  The cycles are attributed to the profiler's current scope. */
    void
    chargeCycles(Cycles c)
    {
        cycleCount += c;
        if (profilerEnabled())
            Profiler::instance().addCycles(c);
    }
    void chargeMicros(double us);

    /** Run user code for `instructions` at ~1 instruction/cycle scaled
     *  by the machine's application performance. */
    void runUserCode(std::uint64_t instructions);

    // ---- results ---------------------------------------------------
    Cycles elapsedCycles() const { return cycleCount; }
    double elapsedMicros() const;
    double elapsedSeconds() const { return elapsedMicros() / 1e6; }

    /** Time spent inside primitive operations only (the §5 "% of time
     *  in OS primitives" numerator). */
    Cycles primitiveCycles() const { return primCycles; }

    const Counts &counts() const { return tally; }

    Tlb &tlb() { return tlbModel; }

    void resetAccounting();

  private:
    void chargePrimitive(Primitive p);
    /** Closed-form chargePrimitive × n under an outer profiler scope
     *  entered n times (the batch fast path; caller checked
     *  batchActive()). Forced inline, as is batchScopedPrimitive:
     *  a traffic sweep enters a *Batch point several times per
     *  request, and a call there is a measurable share of a sweep. */
    [[gnu::always_inline]] void chargePrimitiveBatch(const char *scope,
                                                     Primitive p,
                                                     std::uint64_t n);
    /** Shared body of the scoped batch ops (syscall/trap/exception/
     *  thread switch): count + HwCounter + charge + optional per-event
     *  sampler boundaries. */
    [[gnu::always_inline]] void
    batchScopedPrimitive(const char *scope, Primitive p,
                         std::uint64_t &count, HwCounter event,
                         std::uint64_t n, bool sample_each);
    MachineDesc desc;
    const PrimitiveCostDb &costs;
    /** cost(desc.id, p) resolved once per primitive at construction:
     *  chargePrimitive runs per kernel event, so no map lookups there. */
    std::array<const PrimitiveCost *, std::size(allPrimitives)>
        primCost{};
    /** emulatedTasCycles(desc), charged per emulated test&set. */
    const Cycles tasCycles;
    /** Lines a PTE change sweeps: the page's footprint on a virtually
     *  indexed cache, else 0. The PteChange primitive already charges
     *  the sweep, so only the lines are counted. */
    const std::uint64_t pageFlushLines;
    /** Lines a context switch flushes: the whole cache when virtually
     *  indexed without context tags, else 0. */
    const std::uint64_t switchFlushLines;
    /** switchFlushLines × flushLineCycles, charged per switch. */
    const Cycles switchFlushCycles;
    Tlb tlbModel;
    Counts tally;
    std::vector<std::unique_ptr<AddressSpace>> spaces;
    std::size_t currentIdx = 0;
    Asid nextAsid = 1;
    Cycles cycleCount = 0;
    Cycles primCycles = 0;
};

} // namespace aosd

#endif // AOSD_OS_KERNEL_KERNEL_HH
