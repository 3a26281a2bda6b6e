/**
 * @file
 * The per-thread observer mask: which instrumentation sinks watch the
 * calling thread's simulation right now.
 *
 * Five sinks read the simulation: the hardware counters
 * (sim/counters), the attribution profiler (sim/profile), the event
 * tracer (sim/trace.hh), the span tracer (sim/spantrace) and the
 * counter sampler (sim/sampling). Each owns one bit of one mask, and
 * each sink's "am I on?" reader (countersEnabled(), profilerEnabled(),
 * tracerEnabled(), spantraceEnabled(), samplingEnabled()) tests its
 * bit. A hook that no sink watches costs one non-atomic thread-local
 * load and a predictable branch.
 *
 * The mask is namespace-scope (not behind an instance() call), so the
 * check needs no function-local-static guard, and thread-local, so
 * each simulation slice (see sim/parallel/parallel_runner.hh) observes
 * independently without atomics. `constinit` tells every includer
 * that no dynamic TLS initializer exists, so a check reads the slot
 * directly instead of first calling a TLS wrapper function.
 */

#ifndef AOSD_SIM_OBSERVERS_HH
#define AOSD_SIM_OBSERVERS_HH

#include <cstdint>

namespace aosd
{

/** One bit per instrumentation sink. */
enum Observer : std::uint8_t
{
    observeCounters = 1u << 0,
    observeProfile = 1u << 1,
    observeTrace = 1u << 2,
    /** Set only while a span-traced request is open. */
    observeSpans = 1u << 3,
    observeSampler = 1u << 4,
};

namespace obsdetail
{
extern constinit thread_local std::uint8_t mask;
} // namespace obsdetail

/** Does any sink in `bits` watch the calling thread? */
inline bool
observing(std::uint8_t bits)
{
    return (obsdetail::mask & bits) != 0;
}

/** Turn the sinks in `bits` on or off for the calling thread. */
inline void
setObserving(std::uint8_t bits, bool on)
{
    if (on)
        obsdetail::mask |= bits;
    else
        obsdetail::mask &= static_cast<std::uint8_t>(~bits);
}

/**
 * RAII pause of the profiler and the span tracer: helper simulations
 * inside analytic models (the LRPC steady-state TLB warm-up, the cost
 * database's handler runs) run under one of these so their charges
 * nest no phantom spans into an open request, and the handler runs do
 * not land in the caller's attribution tree. The destructor restores
 * both bits as they were.
 */
class ObserverPause
{
  public:
    ObserverPause()
        : saved(obsdetail::mask & (observeProfile | observeSpans))
    {
        setObserving(observeProfile | observeSpans, false);
    }

    ~ObserverPause()
    {
        setObserving(observeProfile | observeSpans, false);
        obsdetail::mask |= saved;
    }

    ObserverPause(const ObserverPause &) = delete;
    ObserverPause &operator=(const ObserverPause &) = delete;

  private:
    std::uint8_t saved;
};

} // namespace aosd

#endif // AOSD_SIM_OBSERVERS_HH
