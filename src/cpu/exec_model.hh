/**
 * @file
 * Cycle-level execution of handler programs.
 *
 * ExecModel charges each micro-op its base cost plus the stateful
 * memory-system effects the paper analyses: write-buffer stalls, cache
 * misses, uncached accesses, control-register latency, microcode, TLB
 * and cache-maintenance operations. The cycle totals, divided by the
 * machine clock, regenerate the microsecond columns of Tables 1 and 5;
 * the instruction totals regenerate Table 2.
 */

#ifndef AOSD_CPU_EXEC_MODEL_HH
#define AOSD_CPU_EXEC_MODEL_HH

#include <cstdint>
#include <vector>

#include "arch/isa.hh"
#include "arch/machine_desc.hh"
#include "mem/write_buffer.hh"

namespace aosd
{

/** Where the cycles of a stream went (for the paper's share analyses). */
struct CycleBreakdown
{
    Cycles base = 0;          ///< 1-cycle issue slots (incl. nops)
    Cycles writeBufferStall = 0;
    Cycles cacheMissStall = 0;
    Cycles uncached = 0;
    Cycles ctrlReg = 0;
    Cycles microcode = 0;     ///< CISC microcode + hwDelay latency
    Cycles tlbOps = 0;
    Cycles cacheMaintenance = 0;
    Cycles trapHardware = 0;  ///< trap entry/return hardware cycles
    Cycles fpuSync = 0;

    Cycles
    total() const
    {
        return base + writeBufferStall + cacheMissStall + uncached +
               ctrlReg + microcode + tlbOps + cacheMaintenance +
               trapHardware + fpuSync;
    }

    CycleBreakdown &operator+=(const CycleBreakdown &o);
};

/** Result of executing one phase. */
struct PhaseResult
{
    PhaseKind kind = PhaseKind::Body;
    Cycles cycles = 0;
    std::uint64_t instructions = 0;
    CycleBreakdown breakdown;
};

/** Result of executing a whole handler program. */
struct ExecResult
{
    std::vector<PhaseResult> phases;
    Cycles cycles = 0;
    std::uint64_t instructions = 0;
    CycleBreakdown breakdown;

    /** Time at a given clock, in microseconds. */
    double
    micros(const Clock &clock) const
    {
        return clock.cyclesToMicros(cycles);
    }

    /** Cycles attributed to a named phase (0 if absent). */
    Cycles phaseCycles(PhaseKind kind) const;
};

/**
 * Executes instruction streams for one machine. Stateful: the write
 * buffer persists across ops within a run() call and is reset between
 * calls (the paper's measurements are steady-state repeated calls with
 * a quiescent buffer at entry).
 */
class ExecModel
{
  public:
    explicit ExecModel(const MachineDesc &machine);

    /** Execute a complete handler program. */
    ExecResult run(const HandlerProgram &program);

    /** Execute this machine's cached handler for `prim`
     *  (run(cachedHandler(machine(), prim))). */
    ExecResult runPrimitive(Primitive prim);

    /** Execute a bare stream (used by share analyses and the IPC layer).
     *  Continues from `start_cycle` against the current buffer state. */
    PhaseResult runStream(const InstrStream &stream,
                          Cycles start_cycle = 0);

    /** Reset memory-system state between measurements. */
    void reset() { writeBuffer.reset(); }

    const MachineDesc &machine() const { return desc; }

  private:
    /** Charge one repetition of an op at `now`; returns cycles consumed
     *  and attributes them in `bd`. */
    Cycles chargeOp(const Op &op, Cycles now, CycleBreakdown &bd);

    MachineDesc desc;
    WriteBuffer writeBuffer;
};

} // namespace aosd

#endif // AOSD_CPU_EXEC_MODEL_HH
