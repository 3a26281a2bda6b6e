/**
 * @file
 * SimSlice — one thread's shard of the mutable simulation state.
 *
 * Every piece of cross-cutting instrumentation state in the simulator
 * is thread-local: the trace ring (sim/trace.hh), the cycle-
 * attribution tree (sim/profile/profile.hh) and the hardware counter
 * file (sim/counters/counters.hh) all hand out the *calling thread's*
 * instance, guarded by the trcdetail::on / profdetail::on /
 * ctrdetail::on thread-local fast-path flags. SimSlice names that
 * shard: it is the façade a worker thread uses to reach or reset
 * those three arenas. The counter sampler (sim/sampling) and the span
 * tracer (sim/spantrace) are per-thread too but keep their own state.
 * Results cross threads as task return values, merged in task-index
 * order (see parallel_runner.hh).
 *
 * A SimSlice is never constructed; current() is a view of the calling
 * thread's thread_local state.
 */

#ifndef AOSD_SIM_PARALLEL_SIM_SLICE_HH
#define AOSD_SIM_PARALLEL_SIM_SLICE_HH

#include "sim/counters/counters.hh"
#include "sim/profile/profile.hh"
#include "sim/trace.hh"

namespace aosd
{

/** The calling thread's shard of tracer/profiler/counters. */
class SimSlice
{
  public:
    /** View of the calling thread's slice. */
    static SimSlice &current();

    Tracer &tracer() { return Tracer::instance(); }
    Profiler &profiler() { return Profiler::instance(); }
    HwCounters &counters() { return HwCounters::instance(); }

    /** Disable and clear every instrumentation arena on this thread —
     *  the worker-thread equivalent of a fresh process. */
    void resetInstrumentation();

  private:
    SimSlice() = default;
};

} // namespace aosd

#endif // AOSD_SIM_PARALLEL_SIM_SLICE_HH
