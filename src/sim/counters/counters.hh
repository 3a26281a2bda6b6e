/**
 * @file
 * Simulated hardware performance counters.
 *
 * The paper explains every primitive's cost through microarchitectural
 * events — write-buffer stalls, cache flushes, TLB misses and refills,
 * SPARC register-window overflows — and the PR 2 profiler records
 * *where* cycles go but not *which events caused them*. This subsystem
 * closes that gap: a fixed set of named monotonic 64-bit counters,
 * bumped by the stateful components (write buffer, caches, TLB,
 * execution model, register windows, kernel, IPC), with snapshot/
 * delta/reset semantics.
 *
 * The headline consumer is the cycles-explained cross-check
 * (sim/counters/reconcile.hh): event counts times their modeled
 * penalties must reproduce the cycles the execution model charged —
 * the paper's own arithmetic for Tables 1/2/5.
 *
 * Counting is off by default; a disabled bump is one test of the
 * observer mask (sim/observers.hh). The hooks are always compiled in:
 * the cycles-explained arithmetic is read off these counters, so a
 * build without them would model a different machine.
 *
 * Counter state is per thread: each simulation slice (see
 * sim/parallel/parallel_runner.hh) counts into its own file, so
 * parallel jobs never race on a bump, and each cell's result carries
 * its own snapshot back in task-index order.
 */

#ifndef AOSD_SIM_COUNTERS_COUNTERS_HH
#define AOSD_SIM_COUNTERS_COUNTERS_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "sim/json.hh"
#include "sim/observers.hh"

namespace aosd
{

/**
 * Every hardware event the simulation counts. One enumerator per
 * counter; the set is fixed at compile time so the hot-path bump is an
 * array index, not a string lookup.
 */
enum class HwCounter : std::uint16_t
{
    // ---- execution model (per micro-op) ---------------------------
    InstrRetired,     ///< architectural instructions retired
    IssueSlots,       ///< 1-cycle issue slots (alu/nop/branch/ld/st)
    Nops,             ///< explicit no-ops / unfilled delay slots
    Branches,         ///< branches and jumps
    InterlockCycles,  ///< pipeline bubbles (branch-taken penalty)
    Loads,            ///< cached loads issued
    Stores,           ///< cached stores issued
    UncachedAccesses, ///< uncached loads+stores (I/O, CMMU regs)
    AtomicOps,        ///< interlocked ops (test&set, xmem, ldstub)
    ColdMisses,       ///< guaranteed-miss loads (cold context)
    CtrlRegAccesses,  ///< privileged control-register reads/writes
    MicrocodeOps,     ///< microcoded instructions + hw latencies
    MicrocodeCycles,  ///< cycles spent in microcode / hw latency
    FpuSyncCycles,    ///< cycles draining a frozen FP pipeline
    TrapEnters,       ///< hardware trap/exception entries
    TrapReturns,      ///< return-from-exception events

    // ---- SPARC register windows -----------------------------------
    WindowOverflows,  ///< window overflow traps taken
    WindowUnderflows, ///< window underflow traps taken
    WindowsSpilled,   ///< windows written out to memory

    // ---- TLB/cache maintenance ops (exec model) -------------------
    TlbWriteOps,      ///< TLB entry writes (tlbwr / MTPR)
    TlbProbeOps,      ///< TLB probes (tlbp)
    TlbPurgeEntryOps, ///< single-entry invalidates (TBIS)
    TlbPurgeAllOps,   ///< whole-TLB invalidates (TBIA)
    CacheFlushLines,  ///< cache lines flushed/invalidated

    // ---- write buffer ---------------------------------------------
    WbStores,             ///< stores entering the write buffer
    WbStalls,             ///< stores stalled on a full buffer
    WbReadWaits,          ///< loads held for the buffer to drain
    WbStallCycles,        ///< total cycles lost to both stalls
    WbOccupancyHighWater, ///< max entries pending (high-water)

    // ---- functional cache (VM/IPC/workload layers) ----------------
    CacheHits,
    CacheMisses,
    CacheWriteThroughs, ///< write-through stores to memory

    // ---- functional TLB -------------------------------------------
    TlbHits,
    TlbMisses,
    TlbRefillCycles, ///< cycles charged for TLB refills
    TlbPurges,       ///< full/entry/asid purges
    AsidRollovers,   ///< ASID wraps forcing a stale-entry purge

    // ---- kernel / scheduler ---------------------------------------
    KernelTraps,
    KernelSyscalls,
    ContextSwitches, ///< address-space switches
    ThreadSwitches,  ///< same-space thread switches
    EmulatedInstrs,  ///< instructions emulated by the kernel

    // ---- IPC -------------------------------------------------------
    IpcMessages,
    IpcBytesCopied,
    IpcFastPath, ///< LRPC/URPC fast-path takes
    IpcSlowPath, ///< network-RPC / kernel-mediated slow path

    // ---- workload / kernel-window accounting ----------------------
    ProcedureCalls,   ///< user-level procedure calls (Synapse, §4.1)
    PteChanges,       ///< pte_change primitive invocations
    EmulatedTasOps,   ///< fast-trap emulated test&set ops (a subset
                      ///< of EmulatedInstrs priced differently)
    TlbPurgeCycles,   ///< cycles purging an untagged TLB on switch
    CacheFlushCycles, ///< cycles flushing a virtual cache on switch

    NumCounters, ///< sentinel — keep last
};

inline constexpr std::size_t numHwCounters =
    static_cast<std::size_t>(HwCounter::NumCounters);

/** Stable snake_case name ("wb_stall_cycles") for JSON and tools. */
const char *counterName(HwCounter c);

/** Counters that track a maximum, not a sum (delta keeps the end
 *  value instead of subtracting). */
constexpr bool
counterIsHighWater(HwCounter c)
{
    return c == HwCounter::WbOccupancyHighWater;
}

namespace ctrdetail
{
/** The counter file. Namespace-scope and thread-local, like the
 *  observer mask, so every simulation slice counts into its own file
 *  without atomics. */
extern constinit thread_local std::array<std::uint64_t, numHwCounters> vals;
} // namespace ctrdetail

/** Cheapest possible "are counters on?" check for hot paths. */
inline bool
countersEnabled()
{
    return observing(observeCounters);
}

/** Bump an event counter (saturation-free 64-bit accumulate). */
inline void
countEvent(HwCounter c, std::uint64_t n = 1)
{
    if (countersEnabled())
        ctrdetail::vals[static_cast<std::size_t>(c)] += n;
}

/** Raise a high-water counter to `v` if `v` exceeds it. */
inline void
countHighWater(HwCounter c, std::uint64_t v)
{
    if (countersEnabled()) {
        std::uint64_t &s = ctrdetail::vals[static_cast<std::size_t>(c)];
        if (v > s)
            s = v;
    }
}

/**
 * A value snapshot of every counter. Plain data: copyable, comparable,
 * serializable. Produced by HwCounters::snapshot(); windows of
 * activity are measured as end.delta(start).
 */
class CounterSet
{
  public:
    std::uint64_t
    get(HwCounter c) const
    {
        return v[static_cast<std::size_t>(c)];
    }

    void
    set(HwCounter c, std::uint64_t val)
    {
        v[static_cast<std::size_t>(c)] = val;
    }

    /** Events between `start` and this snapshot: subtracts counter by
     *  counter, except high-water counters, which keep this snapshot's
     *  value (a maximum does not difference). */
    CounterSet delta(const CounterSet &start) const;

    /** Sum of all event counters (high-water excluded); a quick
     *  "did anything happen" probe for tests. */
    std::uint64_t totalEvents() const;

    /** {"<counter_name>": value, ...} — every counter, declaration
     *  order, zeros included (goldens diff cleanly). */
    Json toJson() const;

    bool operator==(const CounterSet &) const = default;

  private:
    std::array<std::uint64_t, numHwCounters> v{};
};

/**
 * The calling thread's counter file (per-thread, like the tracer and
 * profiler, so each simulation slice counts independently). enable()
 * resets and starts counting; components bump via countEvent()/
 * countHighWater().
 */
class HwCounters
{
  public:
    static HwCounters &instance();

    /** Zero every counter and start counting. */
    void
    enable()
    {
        reset();
        setObserving(observeCounters, true);
    }

    /** Stop counting; values remain readable. */
    void disable() { setObserving(observeCounters, false); }

    /** Continue counting without resetting. */
    void resume() { setObserving(observeCounters, true); }

    bool enabled() const { return countersEnabled(); }

    /** Zero every counter (enablement unchanged). */
    void reset() { ctrdetail::vals.fill(0); }

    /** Copy out the current values. */
    CounterSet snapshot() const;

    std::uint64_t
    value(HwCounter c) const
    {
        return ctrdetail::vals[static_cast<std::size_t>(c)];
    }

    /** snapshot().toJson(). */
    Json toJson() const { return snapshot().toJson(); }

  private:
    HwCounters() = default;
};

} // namespace aosd

#endif // AOSD_SIM_COUNTERS_COUNTERS_HH
