/**
 * @file
 * Periodic counter sampling driven by simulated cycles.
 *
 * The Table 7 workloads and the reference-trace replays run for
 * simulated minutes, and until now reported only end-to-end totals —
 * the §5 comparison collapses an entire Andrew benchmark into one row.
 * This subsystem snapshots the hardware-counter file (and a
 * driver-supplied auxiliary value, e.g. the kernel's primitive-cycle
 * count) every `intervalCycles` of simulated time, into a fixed-size
 * ring that overwrites the oldest sample when full. Consecutive
 * snapshots difference into per-interval event *rates* — TLB misses
 * per kilocycle, syscall rate, kernel-window occupancy — the
 * phase-resolved view that connects OS behavior back to architectural
 * mechanisms.
 *
 * Sampling is off by default; a disabled tick is one test of the
 * observer mask (sim/observers.hh) and a predictable branch. The hooks
 * are always compiled in;
 * EXPERIMENTS.md says where their cost is measured.
 *
 * Sampler state is per thread: each simulation slice (see
 * sim/parallel/parallel_runner.hh) samples its own cell, drivers open
 * and close a session per cell, and the extracted series rides in the
 * cell's result — so fanning cells across workers produces the same
 * bytes as the serial loop.
 */

#ifndef AOSD_SIM_SAMPLING_SAMPLER_HH
#define AOSD_SIM_SAMPLING_SAMPLER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/counters/counters.hh"
#include "sim/json.hh"
#include "sim/observers.hh"
#include "sim/ticks.hh"

namespace aosd
{

/** Cheapest possible "is sampling on?" check for hot paths. */
inline bool
samplingEnabled()
{
    return observing(observeSampler);
}

/** How a sampling session runs. */
struct SamplerConfig
{
    /** Simulated cycles between samples. 0 disables sampling. */
    Cycles intervalCycles = 0;
    /** Ring capacity in samples; the oldest samples are overwritten
     *  (and counted as dropped) when a run outlives the ring. */
    std::size_t capacity = 4096;
};

/** One snapshot: the cumulative counter file at a simulated cycle,
 *  plus one driver-defined auxiliary value (SimKernel primitive
 *  cycles, cumulative TLB refill cycles, ...). */
struct CounterSample
{
    Cycles cycle = 0;
    double aux = 0;
    CounterSet counters;
};

/**
 * A completed session's samples, ready for export. Samples hold
 * *cumulative* values; toJson() emits per-interval rates (each sample
 * differenced against its predecessor, the first against `base`).
 */
struct CounterTimeSeries
{
    Cycles intervalCycles = 0;
    Cycles startCycle = 0;
    Cycles endCycle = 0;
    std::uint64_t dropped = 0;
    CounterSample base;                 ///< state when the window opened
    std::vector<CounterSample> samples; ///< oldest first

    bool empty() const { return samples.empty(); }

    /** {"interval_cycles":..,"start_cycle":..,"end_cycle":..,
     *   "samples":N,"dropped_samples":..,"cycles":[...],
     *   "series":{"<rate>":[...],...}} — every series array has one
     *  element per sample, fixed series set, declaration order. */
    Json toJson() const;
};

/**
 * The calling thread's sampling engine. A driver that owns a cycle
 * domain opens a session with begin(), calls tick(now, aux) at natural
 * points of its main loop (a due sample is taken when `now` crosses
 * the next interval boundary), and closes with finish(), after which
 * series() hands back the collected time series.
 *
 * When the tracer is enabled, every sample also emits Perfetto
 * "C"-phase counter records ("ts/..." series), so a traced workload
 * run renders its event-rate tracks on the same timeline as its
 * events.
 */
class CounterSampler
{
  public:
    static CounterSampler &instance();

    /** Open a session: reset the ring, record the baseline snapshot at
     *  `start_cycle`, start answering tick(). Requires counters to be
     *  enabled by the caller (the sampler snapshots, never enables). */
    void begin(const SamplerConfig &cfg, Cycles start_cycle = 0,
               double aux = 0);

    /** Take a closing sample at `end_cycle` (if the window advanced
     *  past the last sample) and stop sampling. The collected series
     *  remains readable until the next begin(). */
    void finish(Cycles end_cycle, double aux = 0);

    /** Hot path: sample if `now` reached the next due boundary. */
    void
    tick(Cycles now, double aux = 0)
    {
        if (!samplingEnabled())
            return;
        if (now < nextDue)
            return;
        take(now, aux);
    }

    /**
     * Batch-charge path: the caller just advanced its clock from
     * `start` by `n` homogeneous events of `per_event` cycles each in
     * one closed-form charge, with the thread's counter file already
     * holding the post-batch values. Emits exactly the samples the
     * per-event loop
     *
     *   for i in 1..n:
     *     tick(start + i*per_event, double(aux_start + i*aux_per_event))
     *
     * would have taken — one per interval boundary the run crosses,
     * never one fat sample — reconstructing each intermediate counter
     * snapshot by rolling the current counters back by the (n - i)
     * events that had not yet happened. `per_event_counters` is one
     * event's counter bumps; high-water counters must be untouched by
     * the batched events (they cannot be rolled back).
     */
    void tickRun(Cycles start, Cycles per_event, std::uint64_t n,
                 const CounterSet &per_event_counters,
                 std::uint64_t aux_start, std::uint64_t aux_per_event);

    bool active() const { return samplingEnabled(); }

    std::size_t size() const { return series_.samples.size(); }
    std::uint64_t dropped() const { return series_.dropped; }

    /** The session's series (valid after finish()). */
    const CounterTimeSeries &series() const { return series_; }

  private:
    CounterSampler() = default;
    void take(Cycles now, double aux);
    /** Append one sample (ring semantics, Perfetto tracks, nextDue). */
    void record(Cycles now, double aux, CounterSet &&snap);

    Cycles nextDue = 0;
    Cycles lastSample = 0;
    std::size_t cap = 0;
    CounterTimeSeries series_;
};

} // namespace aosd

#endif // AOSD_SIM_SAMPLING_SAMPLER_HH
