#include "sim/parallel/sim_slice.hh"

namespace aosd
{

SimSlice &
SimSlice::current()
{
    thread_local SimSlice slice;
    return slice;
}

void
SimSlice::resetInstrumentation()
{
    tracer().disable();
    tracer().clear();
    profiler().disable();
    profiler().clear();
    counters().disable();
    counters().reset();
}

} // namespace aosd
