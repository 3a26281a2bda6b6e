/**
 * @file
 * Low-overhead cycle-stamped event tracer.
 *
 * The paper's method is instrumentation: the authors counted every
 * trap, system call, context switch and TLB miss inside Mach to build
 * Table 7. The tracer extends that from counts to timelines — each OS
 * and memory-system event is recorded with the cycle it happened at,
 * into a fixed-size ring buffer that overwrites the oldest records
 * when full (tracing never allocates on the hot path and never stops
 * the simulation).
 *
 * Tracing is off by default; when disabled every record call is one
 * test of the observer mask (sim/observers.hh) and a predictable
 * branch. The buffer exports to the chrome://tracing
 * / Perfetto JSON format, with cycles as the time unit.
 *
 * Tracer state is per thread: every simulation slice (see
 * sim/parallel/parallel_runner.hh) owns its own ring and clock, so
 * parallel jobs never interleave records. Tracer::instance() is the
 * calling thread's tracer.
 */

#ifndef AOSD_SIM_TRACE_HH
#define AOSD_SIM_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/json.hh"
#include "sim/observers.hh"
#include "sim/ticks.hh"

namespace aosd
{

/** What happened. One enumerator per instrumented event source. */
enum class TraceEvent : std::uint8_t
{
    TrapEnter,        ///< hardware trap/exception entry
    TrapExit,         ///< return from trap
    Syscall,          ///< system call (trap + prep + C call)
    ContextSwitch,    ///< address-space switch
    ThreadSwitch,     ///< same-space thread switch
    TlbMiss,          ///< translation missed; arg = refill cycles
    TlbFill,          ///< entry inserted; arg = vpn
    TlbPurge,         ///< full/asid purge; arg = entries dropped
    WriteBufferStall, ///< store stalled; arg = stall cycles
    CacheMiss,        ///< cache line miss; arg = miss cycles
    CacheFlush,       ///< cache flush sweep; arg = lines flushed
    WindowOverflow,   ///< SPARC register-window overflow trap
    WindowUnderflow,  ///< SPARC register-window underflow trap
    ExecPhase,        ///< handler-program phase (Table 5 phases)
    RpcPhase,         ///< RPC/LRPC component phase (Tables 3/4)
    EmulatedInstr,    ///< kernel instruction emulation; arg = count
    Counter,          ///< counter-track sample; arg = series value
    Mark,             ///< free-form user marker
};

const char *traceEventName(TraceEvent e);

/** Which timeline lane (chrome tid) an event renders in. Events from
 *  one component share a lane so chrome://tracing / Perfetto shows
 *  per-component tracks instead of one interleaved row. */
int traceEventLane(TraceEvent e);

/** Human-readable lane name ("mem/tlb"), emitted as thread_name
 *  metadata so the UI labels the track. */
const char *traceLaneName(int lane);

/** Cheapest possible "is tracing on?" check for hot paths. Guards the
 *  Tracer::instance() call itself, so a disabled tracer costs one
 *  thread-local load and a branch. */
inline bool
tracerEnabled()
{
    return observing(observeTrace);
}

/** Chrome trace phase: B(egin), E(nd), X (complete), i (instant),
 *  C (counter sample), M (metadata — generated at export only). */
enum class TracePhase : char
{
    Begin = 'B',
    End = 'E',
    Complete = 'X',
    Instant = 'i',
    Counter = 'C',
    Metadata = 'M',
};

/** One ring-buffer slot. `name` must point at storage that outlives
 *  the tracer (string literals in practice). */
struct TraceRecord
{
    Cycles cycle = 0;
    Cycles duration = 0;      ///< Complete events only
    std::uint64_t arg = 0;
    const char *name = nullptr;
    TraceEvent event = TraceEvent::Mark;
    TracePhase phase = TracePhase::Instant;
};

/**
 * Per-thread tracer (one per simulation slice). Enable with a
 * capacity, drive the clock from whichever component owns time at the
 * moment (SimKernel, ExecModel, the IPC models), and export.
 */
class Tracer
{
  public:
    /** The calling thread's tracer. */
    static Tracer &instance();

    /** Start tracing into a fresh ring of `capacity` records. */
    void enable(std::size_t capacity = 1 << 16);

    /** Stop tracing; the buffer remains readable until enable(). */
    void disable() { setObserving(observeTrace, false); }

    bool enabled() const { return tracerEnabled(); }

    /** Advance the trace clock; records without an explicit cycle are
     *  stamped with the latest value. Between enable()/clear() calls,
     *  which rewind it to 0, the clock never moves backwards. */
    void
    setCycle(Cycles c)
    {
        if (c > now)
            now = c;
    }

    Cycles cycle() const { return now; }

    /** Record at the current trace clock. */
    void
    record(TraceEvent e, TracePhase ph, const char *name,
           std::uint64_t arg = 0, Cycles duration = 0)
    {
        if (!tracerEnabled())
            return;
        push({now, duration, arg, name, e, ph});
    }

    /** Record at an explicit cycle. Emitters track their own local
     *  cycle domains, so the stamp is clamped to the monotonic trace
     *  clock: an explicit cycle can advance the timeline but never
     *  produce a record that is out of order with what came before. */
    void
    recordAt(Cycles cycle, TraceEvent e, TracePhase ph,
             const char *name, std::uint64_t arg = 0,
             Cycles duration = 0)
    {
        if (!tracerEnabled())
            return;
        setCycle(cycle);
        push({now, duration, arg, name, e, ph});
    }

    /** Convenience wrappers. */
    void
    instant(TraceEvent e, const char *name, std::uint64_t arg = 0)
    {
        record(e, TracePhase::Instant, name, arg);
    }

    /** Sample a counter track at the current clock: renders as a
     *  time-series lane ("C" phase) named `series` with value
     *  `value` (write-buffer occupancy, cumulative miss counts...). */
    void
    counter(const char *series, std::uint64_t value)
    {
        record(TraceEvent::Counter, TracePhase::Counter, series,
               value);
    }

    void
    complete(Cycles start, Cycles duration, TraceEvent e,
             const char *name, std::uint64_t arg = 0)
    {
        if (!tracerEnabled())
            return;
        recordAt(start, e, TracePhase::Complete, name, arg, duration);
        setCycle(now + duration);
    }

    /** Complete event starting at the current clock; advances it. */
    void
    completeHere(Cycles duration, TraceEvent e, const char *name,
                 std::uint64_t arg = 0)
    {
        complete(now, duration, e, name, arg);
    }

    // ---- inspection -----------------------------------------------
    /** Records currently held (<= capacity). */
    std::size_t size() const { return count; }

    std::size_t capacity() const { return ring.size(); }

    /** Records lost to ring overwrite since enable(). */
    std::uint64_t dropped() const { return droppedCount; }

    /** i-th surviving record, oldest first. */
    const TraceRecord &at(std::size_t i) const;

    /** Copy out the surviving records, oldest first. */
    std::vector<TraceRecord> snapshot() const;

    /** Start a fresh session: drop all records and rewind the clock
     *  to 0 (capacity and enablement unchanged). */
    void clear();

    // ---- export ---------------------------------------------------
    /** chrome://tracing JSON document ("traceEvents" array; "ts" and
     *  "dur" are cycles). */
    Json toChromeJson() const;

    /** toChromeJson() pretty-printed, ready to write to a file. */
    std::string exportChromeTracing() const;

  private:
    void
    push(TraceRecord r)
    {
        if (count == ring.size()) {
            // Overwrite the oldest record.
            head = (head + 1) % ring.size();
            ++droppedCount;
            --count;
        }
        ring[(head + count) % ring.size()] = r;
        ++count;
    }

    Cycles now = 0;
    std::size_t head = 0;   ///< index of the oldest record
    std::size_t count = 0;  ///< live records
    std::uint64_t droppedCount = 0;
    std::vector<TraceRecord> ring;
};

/** RAII scope that emits Begin on entry and End on exit at the
 *  tracer's current clock. */
class TraceScope
{
  public:
    TraceScope(TraceEvent e, const char *scope_name)
        : event(e), name(scope_name)
    {
        if (tracerEnabled())
            Tracer::instance().record(event, TracePhase::Begin, name);
    }

    ~TraceScope()
    {
        if (tracerEnabled())
            Tracer::instance().record(event, TracePhase::End, name);
    }

    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

  private:
    TraceEvent event;
    const char *name;
};

} // namespace aosd

#endif // AOSD_SIM_TRACE_HH
