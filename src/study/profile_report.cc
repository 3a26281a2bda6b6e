#include "study/profile_report.hh"

#include <functional>
#include <utility>

#include "arch/machines.hh"
#include "sim/parallel/parallel_runner.hh"

namespace aosd
{

std::vector<ProfiledPrimitiveRun>
profileAllPrimitives(const std::vector<MachineDesc> &machines,
                     unsigned reps, ParallelRunner &runner)
{
    std::vector<std::function<ProfiledPrimitiveRun()>> tasks;
    tasks.reserve(machines.size() * std::size(allPrimitives));
    for (const MachineDesc &m : machines)
        for (Primitive p : allPrimitives)
            tasks.push_back(
                [&m, p, reps] { return profilePrimitive(m, p, reps); });
    return runner.map<ProfiledPrimitiveRun>(tasks);
}

Json
buildProfileDoc(const std::vector<MachineDesc> &machines,
                const std::vector<ProfiledPrimitiveRun> &runs,
                unsigned reps)
{
    Json doc = Json::object();
    doc.set("schema_version", 1);
    doc.set("generator", "aosd_profile");
    doc.set("repetitions", static_cast<std::uint64_t>(reps));

    Json machines_json = Json::object();
    Json anatomy = Json::object();

    std::size_t next = 0;
    for (const MachineDesc &m : machines) {
        Json machine_json = Json::object();
        for (Primitive p : allPrimitives) {
            const ProfiledPrimitiveRun &run = runs.at(next++);
            double per_call = static_cast<double>(run.totalCycles) /
                              static_cast<double>(reps);

            Json prim = Json::object();
            prim.set("cycles_per_call", per_call);
            prim.set("us_per_call", m.clock.cyclesToMicros(
                                        static_cast<Cycles>(
                                            per_call + 0.5)));
            prim.set("total_cycles", run.totalCycles);
            prim.set("attributed_cycles", run.attributedCycles);
            prim.set("attribution_complete", run.complete());
            prim.set("tree", run.tree);
            machine_json.set(primitiveSlug(p), std::move(prim));

            if (p == Primitive::NullSyscall) {
                Json rows = Json::object();
                double total = 0;
                for (PhaseKind ph : {PhaseKind::KernelEntryExit,
                                     PhaseKind::CallPrep,
                                     PhaseKind::CCallReturn}) {
                    double us = m.clock.cyclesToMicros(
                                    run.phaseCycles(ph)) /
                                static_cast<double>(reps);
                    rows.set(std::string(phaseSlug(ph)) + "_us", us);
                    total += us;
                }
                rows.set("total_us", total);
                anatomy.set(machineSlug(m.id), std::move(rows));
            }
        }
        machines_json.set(machineSlug(m.id), std::move(machine_json));
    }

    doc.set("machines", std::move(machines_json));
    doc.set("table5_anatomy", std::move(anatomy));
    return doc;
}

std::string
foldedStacks(const std::vector<ProfiledPrimitiveRun> &runs)
{
    std::string folded;
    for (const ProfiledPrimitiveRun &run : runs)
        folded += run.folded;
    return folded;
}

} // namespace aosd
