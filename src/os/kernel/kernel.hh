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
#include <span>
#include <string>
#include <vector>

#include "arch/machine_desc.hh"
#include "cpu/primitive_costs.hh"
#include "mem/tlb.hh"
#include "os/kernel/address_space.hh"
#include "sim/counters/reconcile.hh"
#include "sim/observers.hh"

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

/** The kernel events SimKernel charges, one event-table row each. */
enum class KernelEvent : std::uint8_t
{
    Syscall, Trap, Exception, ThreadSwitch, EmulatedTas, EmulatedInstr,
    PteChange, AddrSpaceSwitch,
};

/**
 * One machine's kernel: time accounting + counting + TLB state, with
 * the §3.2 virtual-cache flushes charged as per-machine constants.
 * No kernel path references memory through a cache, so no cache line
 * is ever valid and every sweep — a page per PTE change, the whole
 * cache per switch when untagged — visits the same lines at the same
 * cost. A change that makes the kernel access a cache must bring the
 * cache state (a functional Cache) back.
 *
 * Each KernelEvent is one row of kernel.cc's event table (name, price,
 * counters, Counts field, trace records). An entry point charges `n`
 * events of its kind in closed form while batchActive() (per-event
 * constants × n, CounterSampler::tickRun), else through the per-event
 * body n times; both leave byte-identical documents. `sample_each`
 * adds the drivers' CounterSampler::tick(elapsedCycles(),
 * primitiveCycles()) per event. The kernel feeds the counters, the
 * sampler, the tracer and open spans, never the attribution profiler:
 * that watches handler execution only (sim/profile/profile.hh).
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

    AddressSpace &currentSpace() { return *spaces[currentIdx]; }

    /** The kernel's own space (mapped kernel data: page tables etc.). */
    AddressSpace &kernelSpace() { return *spaces.front(); }

    // ---- kernel events (charge + count `n` of them) ---------------
    /** Null system call overhead (kernel entry + call prep + C call). */
    void syscall(std::uint64_t n = 1, bool sample_each = false);

    /** A trap/fault/interrupt through the common machinery. */
    void trap(std::uint64_t n = 1, bool sample_each = false);

    /** An interrupt or page fault ("other exceptions" in Table 7). */
    void otherException(std::uint64_t n = 1, bool sample_each = false);

    /** Kernel-thread switch within the current space (no mapping
     *  change; counted separately, cf. Table 7 footnote). */
    void threadSwitch(std::uint64_t n = 1, bool sample_each = false);

    /** Fast-path kernel emulation of one interlocked test&set: a
     *  minimal trap that disables interrupts, tests and sets (§4.1:
     *  parthenon spends ~1/5 of its time synchronizing this way). */
    void emulateTestAndSet(std::uint64_t n = 1, bool sample_each = false);

    /** `n` separate one-instruction emulations: one attribution event
     *  (span leaf, trace record) each. */
    void emulateSingleInstructions(std::uint64_t n, bool sample_each = false);

    /** One emulation episode: the kernel emulates `n` instructions on
     *  behalf of user code (e.g. test&set on the MIPS, §4.1/§5), one
     *  attribution event for all of them. */
    void emulateInstructions(std::uint64_t n);

    /** Change one PTE and keep TLB/virtual cache consistent. */
    void
    pteChange(AddressSpace &space, Vpn vpn, PageProt prot)
    {
        pteChange(space, std::span<const Vpn>(&vpn, 1), prot);
    }

    /** pteChange() on each page of `vpns`, in order. */
    void pteChange(AddressSpace &space, std::span<const Vpn> vpns,
                   PageProt prot);

    /** Full address-space context switch, including the hardware costs
     *  of the mapping change and any untagged-TLB/cache purges, plus
     *  the TLB refill of the target's working set. */
    void contextSwitchTo(AddressSpace &target);

    /** Count an "other exception" whose entry the caller already
     *  charged through trap() (a VM fault), without charging it again. */
    void countOtherException() { ++tally.otherExceptions; }

    /** The closed form applies: neither the tracer (records per
     *  event) nor an open span-traced request (a node per event) is
     *  watching. */
    bool
    batchActive() const
    {
        return !observing(observeTrace | observeSpans);
    }

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
    void touchWorkingSet() { touchPages(currentSpace().workingSet(), false); }

    // ---- direct charging ------------------------------------------
    /** Spend user/kernel computation time without counting anything. */
    void chargeCycles(Cycles c) { cycleCount += c; }
    void
    chargeMicros(double us)
    {
        chargeCycles(desc.clock.microsToCycles(us));
    }

    /** Run user code for `instructions` at ~1 instruction/cycle scaled
     *  by the machine's application performance. */
    void runUserCode(std::uint64_t instructions);

    // ---- results ---------------------------------------------------
    Cycles elapsedCycles() const { return cycleCount; }
    double
    elapsedMicros() const
    {
        return desc.clock.cyclesToMicros(cycleCount);
    }
    double elapsedSeconds() const { return elapsedMicros() / 1e6; }

    /** Time spent inside primitive operations only (the §5 "% of time
     *  in OS primitives" numerator). */
    Cycles primitiveCycles() const { return primCycles; }

    const Counts &counts() const { return tally; }

    Tlb &tlb() { return tlbModel; }

    void
    resetAccounting()
    {
        cycleCount = primCycles = 0;
        tally = {};
    }

  private:
    /** Charge `c` primitive cycles to a span leaf. */
    void chargeLeaf(const char *leaf, Cycles c);
    /** Charge `n` events of `kind` (see the class comment); `edit(i)`
     *  applies event i's state change. Forced inline: the Table-7
     *  grid's replays enter it several times per simulated call. */
    template <typename StateEdit>
    [[gnu::always_inline]] void chargeEvents(KernelEvent kind, std::uint64_t n,
                                             bool sample_each, StateEdit edit);
    /** The per-event body: one event of `kind` counting `width` (an
     *  emulation episode's instructions, else 1); `edit()` follows the
     *  charge, inside the event's scope. */
    template <typename StateEdit>
    void chargeEvent(KernelEvent kind, std::uint64_t width,
                     StateEdit edit);
    MachineDesc desc;
    /** cost(desc.id, p) resolved once per primitive at construction:
     *  the charging path runs per kernel event, so no map lookups. */
    std::array<const PrimitiveCost *, std::size(allPrimitives)>
        primCost{};
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
