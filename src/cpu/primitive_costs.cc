#include "cpu/primitive_costs.hh"

#include "arch/machines.hh"
#include "sim/logging.hh"
#include "sim/observers.hh"

namespace aosd
{

PrimitiveCostDb::PrimitiveCostDb()
{
    // The cache may be built lazily while a profile or a span-traced
    // request is open; these warm-up simulations are not the observed
    // workload's cycles, so keep them out of the attribution tree and
    // the request's span tree.
    ObserverPause pause;
    for (const MachineDesc &m : allMachines()) {
        machines.emplace(m.id, m);
        ExecModel exec(m);
        for (Primitive p : allPrimitives) {
            PrimitiveCost c;
            c.machine = m.id;
            c.primitive = p;
            c.detail = exec.runPrimitive(p);
            c.cycles = c.detail.cycles;
            c.instructions = c.detail.instructions;
            c.micros = m.clock.cyclesToMicros(c.cycles);
            costs.emplace(std::make_pair(m.id, p), std::move(c));
            exec.reset();
        }
    }
}

const PrimitiveCost &
PrimitiveCostDb::cost(MachineId m, Primitive p) const
{
    auto it = costs.find({m, p});
    if (it == costs.end())
        panic("no primitive cost cached");
    return it->second;
}

double
PrimitiveCostDb::micros(MachineId m, Primitive p) const
{
    return cost(m, p).micros;
}

Cycles
PrimitiveCostDb::cycles(MachineId m, Primitive p) const
{
    return cost(m, p).cycles;
}

std::uint64_t
PrimitiveCostDb::instructions(MachineId m, Primitive p) const
{
    return cost(m, p).instructions;
}

double
PrimitiveCostDb::relativeToCvax(MachineId m, Primitive p) const
{
    return micros(MachineId::CVAX, p) / micros(m, p);
}

const PrimitiveCostDb &
sharedCostDb()
{
    static PrimitiveCostDb db;
    return db;
}

const MachineDesc &
PrimitiveCostDb::machine(MachineId m) const
{
    auto it = machines.find(m);
    if (it == machines.end())
        panic("unknown machine");
    return it->second;
}

// ----------------------------------------------------------- paper data

double
PaperPrimitiveData::microseconds(MachineId m, Primitive p)
{
    // Table 1 of Anderson et al. 1991.
    switch (m) {
      case MachineId::CVAX:
        switch (p) {
          case Primitive::NullSyscall: return 15.8;
          case Primitive::Trap: return 23.1;
          case Primitive::PteChange: return 8.8;
          case Primitive::ContextSwitch: return 28.3;
        }
        break;
      case MachineId::M88000:
        switch (p) {
          case Primitive::NullSyscall: return 11.8;
          case Primitive::Trap: return 14.4;
          case Primitive::PteChange: return 3.9;
          case Primitive::ContextSwitch: return 22.8;
        }
        break;
      case MachineId::R2000:
        switch (p) {
          case Primitive::NullSyscall: return 9.0;
          case Primitive::Trap: return 15.4;
          case Primitive::PteChange: return 3.1;
          case Primitive::ContextSwitch: return 14.8;
        }
        break;
      case MachineId::R3000:
        switch (p) {
          case Primitive::NullSyscall: return 4.1;
          case Primitive::Trap: return 5.2;
          case Primitive::PteChange: return 2.0;
          case Primitive::ContextSwitch: return 7.4;
        }
        break;
      case MachineId::SPARC:
        switch (p) {
          case Primitive::NullSyscall: return 15.2;
          case Primitive::Trap: return 17.1;
          case Primitive::PteChange: return 2.7;
          case Primitive::ContextSwitch: return 53.9;
        }
        break;
      default:
        break;
    }
    return -1.0;
}

std::uint64_t
PaperPrimitiveData::instructionCount(MachineId m, Primitive p)
{
    // Table 2 of Anderson et al. 1991 (R2000 and R3000 share a column).
    switch (m) {
      case MachineId::CVAX:
        switch (p) {
          case Primitive::NullSyscall: return 12;
          case Primitive::Trap: return 14;
          case Primitive::PteChange: return 11;
          case Primitive::ContextSwitch: return 9;
        }
        break;
      case MachineId::M88000:
        switch (p) {
          case Primitive::NullSyscall: return 122;
          case Primitive::Trap: return 156;
          case Primitive::PteChange: return 24;
          case Primitive::ContextSwitch: return 98;
        }
        break;
      case MachineId::R2000:
      case MachineId::R3000:
        switch (p) {
          case Primitive::NullSyscall: return 84;
          case Primitive::Trap: return 103;
          case Primitive::PteChange: return 36;
          case Primitive::ContextSwitch: return 135;
        }
        break;
      case MachineId::SPARC:
        switch (p) {
          case Primitive::NullSyscall: return 128;
          case Primitive::Trap: return 145;
          case Primitive::PteChange: return 15;
          case Primitive::ContextSwitch: return 326;
        }
        break;
      case MachineId::I860:
        switch (p) {
          case Primitive::NullSyscall: return 86;
          case Primitive::Trap: return 155;
          case Primitive::PteChange: return 559;
          case Primitive::ContextSwitch: return 618;
        }
        break;
      default:
        break;
    }
    return 0;
}

double
PaperPrimitiveData::table5Micros(MachineId m, PhaseKind phase)
{
    // Table 5: time in the null system call.
    switch (m) {
      case MachineId::CVAX:
        switch (phase) {
          case PhaseKind::KernelEntryExit: return 4.5;
          case PhaseKind::CallPrep: return 3.1;
          case PhaseKind::CCallReturn: return 8.2;
          default: break;
        }
        break;
      case MachineId::R2000:
        switch (phase) {
          case PhaseKind::KernelEntryExit: return 0.6;
          case PhaseKind::CallPrep: return 6.3;
          case PhaseKind::CCallReturn: return 2.1;
          default: break;
        }
        break;
      case MachineId::SPARC:
        switch (phase) {
          case PhaseKind::KernelEntryExit: return 0.6;
          case PhaseKind::CallPrep: return 13.1;
          case PhaseKind::CCallReturn: return 1.4;
          default: break;
        }
        break;
      default:
        break;
    }
    return -1.0;
}

} // namespace aosd
