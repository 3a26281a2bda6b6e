/**
 * @file
 * RAII HwCounters scope for tests outside the CountersTest fixture.
 */

#ifndef AOSD_TESTS_COUNTING_SCOPE_HH
#define AOSD_TESTS_COUNTING_SCOPE_HH

#include "sim/counters/counters.hh"
#include "sim/trace.hh"

namespace aosd
{

/** Zero and enable this thread's HwCounters for one scope; on exit
 *  restore the global counter and tracer state, as CountersTest's
 *  fixture does. */
struct CountingScope
{
    CountingScope() { HwCounters::instance().enable(); }

    ~CountingScope()
    {
        HwCounters::instance().disable();
        HwCounters::instance().reset();
        Tracer::instance().disable();
        Tracer::instance().clear();
    }

    CountingScope(const CountingScope &) = delete;
    CountingScope &operator=(const CountingScope &) = delete;

    std::uint64_t
    value(HwCounter c) const
    {
        return HwCounters::instance().value(c);
    }
};

} // namespace aosd

#endif // AOSD_TESTS_COUNTING_SCOPE_HH
