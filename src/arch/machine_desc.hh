/**
 * @file
 * Static description of a machine (ISA + system implementation).
 *
 * One MachineDesc captures everything the paper's analysis depends on:
 * the register file and per-thread state (Table 6), trap vectoring style
 * (§2.3), register windows (§2.3, §4.1), exposed pipelines (§3.1), TLB
 * structure and management (§3.2), cache addressing (§3.2), write buffer
 * behaviour (§2.3), atomic instruction support (§4.1), and application
 * integer performance (Table 1's bottom row).
 */

#ifndef AOSD_ARCH_MACHINE_DESC_HH
#define AOSD_ARCH_MACHINE_DESC_HH

#include <cstdint>
#include <string>

#include "sim/ticks.hh"

namespace aosd
{

/** How the hardware dispatches traps and system calls. */
enum class TrapVectoring
{
    /** VAX-style: microcode vectors through the SCB directly. */
    Microcoded,
    /** 88000/SPARC-style: hardware vectors to a per-cause handler. */
    DirectVectored,
    /** R2000/i860-style: (nearly) all exceptions share one handler and
     *  software decodes the cause. */
    CommonHandler,
};

/** Who refills the TLB on a miss. */
enum class TlbManagement
{
    Hardware,
    Software,
};

/** How the primary data cache is indexed/tagged. */
enum class CacheIndexing
{
    Physical,
    Virtual,
};

/** Cache write policy. */
enum class WritePolicy
{
    WriteThrough,
    WriteBack,
};

/** Write buffer between a write-through cache and memory. */
struct WriteBufferDesc
{
    /** Number of entries (0 means stores stall for the full write). */
    std::uint32_t depth = 0;
    /** Cycles for memory to retire one buffered write. */
    std::uint32_t drainCycles = 5;
    /**
     * DECstation 5000 behaviour: successive writes to the same DRAM page
     * retire one per cycle instead of paying drainCycles each.
     */
    bool samePageFastRetire = false;
    /** Retire cycles for a same-page successive write when fast. */
    std::uint32_t samePageDrainCycles = 1;
    /**
     * Memory interface cannot service reads around pending writes
     * (DECstation 3100): a cached load issued while the buffer is
     * non-empty waits for it to drain.
     */
    bool readsWaitForDrain = false;

    bool operator==(const WriteBufferDesc &) const = default;
};

/** First-level cache parameters. */
struct CacheDesc
{
    CacheIndexing indexing = CacheIndexing::Physical;
    WritePolicy policy = WritePolicy::WriteThrough;
    std::uint32_t sizeBytes = 64 * 1024;
    std::uint32_t lineBytes = 16;
    /** Cycles lost on a read miss. */
    std::uint32_t missPenaltyCycles = 6;
    /** Cycles for an uncached access (I/O space, CMMU registers). */
    std::uint32_t uncachedCycles = 8;
    /** Cycles to flush/invalidate one line by address. */
    std::uint32_t flushLineCycles = 4;
    /** Virtually-addressed caches must be flushed on context switch
     *  unless entries carry process IDs. */
    bool flushOnContextSwitch = false;

    /** Lines in the cache: what one whole-cache flush visits. */
    std::uint32_t lineCount() const { return sizeBytes / lineBytes; }

    bool operator==(const CacheDesc &) const = default;
};

/** Translation lookaside buffer parameters. */
struct TlbDesc
{
    std::uint32_t entries = 64;
    /** Entries carry address-space identifiers (survive switches). */
    bool processIdTags = false;
    /** Number of distinct ASID/PID tags supported (0 if untagged). */
    std::uint32_t pidCount = 0;
    TlbManagement management = TlbManagement::Hardware;
    /** Entries the OS may lock against replacement (SPARC/Cypress). */
    std::uint32_t lockableEntries = 0;
    /** Hardware-managed refill cost (cycles). */
    std::uint32_t hwMissCycles = 20;
    /** Software refill: user-space miss (MIPS utlb fast path). */
    std::uint32_t swUserMissCycles = 12;
    /** Software refill: kernel/mapped-space miss (slow common path). */
    std::uint32_t swKernelMissCycles = 300;
    /** Cycles to invalidate one entry. */
    std::uint32_t purgeEntryCycles = 6;
    /** Cycles to invalidate the whole TLB. */
    std::uint32_t purgeAllCycles = 24;
    /** Cycles to write one entry. */
    std::uint32_t writeEntryCycles = 6;
    /** Machine has an unmapped, cached kernel segment (MIPS kseg0). */
    bool unmappedKernelSegment = false;

    bool operator==(const TlbDesc &) const = default;
};

/** SPARC-style overlapping register windows. */
struct RegWindowDesc
{
    std::uint32_t windows = 0;       ///< 0 = flat register file
    std::uint32_t regsPerWindow = 16;
    /** Average windows spilled+filled per context switch (SunOS data:
     *  three for 8-window SPARCs [Kleiman & Williams 88]). */
    double avgSaveRestorePerSwitch = 3.0;

    bool operator==(const RegWindowDesc &) const = default;
};

/** Pipeline visibility and exception semantics. */
struct PipelineDesc
{
    /** Pipeline state is architecturally visible and must be saved. */
    bool exposed = false;
    /** Number of internal pipeline/scoreboard control registers the
     *  exception handler must read and later restore (88000: ~27). */
    std::uint32_t stateRegs = 0;
    /** Exceptions freeze the FP unit; handler must drain/restart it
     *  before general registers are safe (88000, i860). */
    bool fpuFreezeHazard = false;
    /** Implements precise interrupts (RS6000, SPARC, R2/3000). */
    bool preciseInterrupts = true;

    bool operator==(const PipelineDesc &) const = default;
};

/** Per-op timing constants for the execution model. */
struct TimingDesc
{
    /** Hardware cycles to enter a trap handler (pipeline flush, PSW
     *  swap; on the VAX this is the CHMK/memory-fault microcode). */
    std::uint32_t trapEnterCycles = 4;
    /** Hardware cycles for the return-from-exception path. */
    std::uint32_t trapReturnCycles = 4;
    /** Cycles for a privileged control-register read/write. */
    std::uint32_t ctrlRegCycles = 2;
    /** Branch-taken penalty when no delay slot hides it. */
    std::uint32_t branchPenaltyCycles = 0;

    bool operator==(const TimingDesc &) const = default;
};

/** Identifiers for the machines the paper discusses. */
enum class MachineId
{
    CVAX,      ///< VAXstation 3200, 11.1 MHz CVAX
    M88000,    ///< Tektronix XD88/01, 20 MHz Motorola 88000
    R2000,     ///< DECstation 3100, 16.67 MHz MIPS R2000
    R3000,     ///< DECstation 5000/200, 25 MHz MIPS R3000
    SPARC,     ///< SPARCstation 1+, 25 MHz Sun SPARC
    I860,      ///< Intel i860 (instruction counts only in the paper)
    RS6000,    ///< IBM RS/6000 (thread state only in the paper)
    SUN3,      ///< Sun-3/75, MC68020 (the §2.1 Sprite RPC baseline)
};

/** Complete static machine description. */
struct MachineDesc
{
    MachineId id = MachineId::CVAX;
    std::string name;      ///< microprocessor name (paper table headers)
    std::string system;    ///< system the paper measured it in
    Clock clock = Clock::fromMHz(1.0);

    // ---- Per-thread processor state (Table 6, 32-bit words) ----
    std::uint32_t intRegs = 32;       ///< general registers
    std::uint32_t fpStateWords = 0;   ///< floating-point state
    std::uint32_t miscStateWords = 0; ///< PSW, pipeline regs, etc.

    RegWindowDesc regWindows;
    PipelineDesc pipeline;

    /** Architectural delay slots after loads/branches (0 or 1). */
    std::uint32_t delaySlots = 0;
    /** Fraction of delay slots the low-level handler code fails to
     *  fill (R2000 handlers: ~0.5 [§2.3]). */
    double unfilledDelaySlotFraction = 0.0;

    TrapVectoring vectoring = TrapVectoring::CommonHandler;
    /** Has an interlocked test&set-class instruction (§4.1: the MIPS
     *  R2000/R3000 famously does not). */
    bool hasAtomicOp = true;
    /** Hardware reports the faulting virtual address (the i860 does
     *  not; its handler interprets the faulting instruction, +26
     *  instructions [§3.1]). */
    bool providesFaultAddress = true;
    /** CISC with microcoded OS support instructions. */
    bool microcoded = false;

    WriteBufferDesc writeBuffer;
    CacheDesc cache;
    TlbDesc tlb;
    TimingDesc timing;

    /** Integer application performance relative to the CVAX
     *  (SPECmark-based bottom row of Table 1; extrapolated where the
     *  paper gives none). */
    double appPerfVsCvax = 1.0;
    /** True when appPerfVsCvax is our extrapolation, not paper data. */
    bool appPerfExtrapolated = false;

    /** Total thread context words (Table 6 row sum). */
    std::uint32_t
    threadStateWords() const
    {
        return intRegs + fpStateWords + miscStateWords;
    }

    /** Member-wise equality; the handler-program cache uses it to
     *  detect ablation-modified descriptions (cpu/handlers.hh). */
    bool operator==(const MachineDesc &) const = default;
};

} // namespace aosd

#endif // AOSD_ARCH_MACHINE_DESC_HH
