#include "cpu/profiled_primitives.hh"

#include "arch/machines.hh"
#include "cpu/exec_model.hh"
#include "cpu/handlers.hh"
#include "sim/profile/profile.hh"

namespace aosd
{

Cycles
ProfiledPrimitiveRun::phaseCycles(PhaseKind kind) const
{
    auto it = phaseTotals.find(phaseSlug(kind));
    return it == phaseTotals.end() ? 0 : it->second;
}

ProfiledPrimitiveRun
profilePrimitive(const MachineDesc &machine, Primitive prim,
                 unsigned reps)
{
    ProfiledPrimitiveRun run;
    run.machine = machine.id;
    run.primitive = prim;
    run.repetitions = reps;

    // Warm the handler cache outside the profile window, so the tree
    // holds only the handler's own phase attribution.
    cachedHandler(machine, prim);
    ExecModel exec(machine);

    Profiler &prof = Profiler::instance();
    prof.enable();
    for (unsigned i = 0; i < reps; ++i)
        run.totalCycles += exec.runPrimitive(prim).cycles;
    prof.disable();

    run.attributedCycles = prof.attributedCycles();
    run.tree = prof.toJson();
    run.folded = prof.collapsedStacks(
        std::string(machineSlug(machine.id)) + ";" +
        primitiveSlug(prim));
    for (const auto &child : prof.root().children)
        run.phaseTotals[child->name] = child->totalCycles();
    prof.clear();
    return run;
}

} // namespace aosd
