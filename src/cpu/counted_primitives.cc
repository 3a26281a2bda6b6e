#include "cpu/counted_primitives.hh"

#include "arch/machines.hh"
#include "cpu/exec_model.hh"
#include "cpu/handlers.hh"

namespace aosd
{

Json
CountedPrimitiveRun::toJson() const
{
    Json j = Json::object();
    j.set("machine", Json(machineSlug(machine)));
    j.set("primitive", Json(primitiveSlug(primitive)));
    j.set("repetitions",
          Json(static_cast<std::uint64_t>(repetitions)));
    j.set("cycles", Json(totalCycles));
    j.set("counters", counters.toJson());
    j.set("reconciliation", reconciliation.toJson());
    return j;
}

CountedPrimitiveRun
countPrimitive(const MachineDesc &machine, Primitive prim,
               unsigned reps)
{
    CountedPrimitiveRun run;
    run.machine = machine.id;
    run.primitive = prim;
    run.repetitions = reps;

    // Warm the handler cache before opening the counter window, so
    // the window holds only the handler's own counter bumps.
    cachedHandler(machine, prim);
    ExecModel exec(machine);

    HwCounters &ctrs = HwCounters::instance();
    bool was_on = ctrs.enabled();
    ctrs.enable(); // resets
    CounterSet start = ctrs.snapshot();
    for (unsigned i = 0; i < reps; ++i)
        run.totalCycles += exec.runPrimitive(prim).cycles;
    run.counters = ctrs.snapshot().delta(start);
    ctrs.disable();
    ctrs.reset();
    if (was_on)
        ctrs.resume();

    run.reconciliation =
        reconcileCycles(machine, run.counters, run.totalCycles);
    return run;
}

} // namespace aosd
