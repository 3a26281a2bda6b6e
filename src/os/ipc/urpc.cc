#include "os/ipc/urpc.hh"

#include "cpu/primitive_costs.hh"
#include "mem/cache.hh"
#include "sim/counters/counters.hh"
#include "sim/spantrace/spantrace.hh"

namespace aosd
{

UrpcModel::UrpcModel(const MachineDesc &machine, UrpcConfig config)
    : desc(machine), cfg(config)
{}

UrpcBreakdown
UrpcModel::nullCall() const
{
    auto us = [&](Cycles c) { return desc.clock.cyclesToMicros(c); };
    UrpcBreakdown b;

    // Two queue crossings (call and reply), each guarded by a lock.
    // On machines without an interlocked instruction this is the
    // kernel-trap path — URPC cannot fully escape the kernel there.
    LockImpl impl = naturalLockImpl(desc);
    b.lockUs = 2.0 * us(lockPairCycles(desc, impl));

    // Arguments onto the shared queue, results off it.
    b.copyUs = 2.0 * us(copyCycles(desc, cfg.argBytes));

    // Call + reply through shared memory, no kernel on the data path.
    countEvent(HwCounter::IpcMessages, 2);
    countEvent(HwCounter::IpcFastPath);
    countEvent(HwCounter::IpcBytesCopied, 2ull * cfg.argBytes);

    // The client's thread blocks at user level; the server's runs.
    ThreadCosts costs = computeThreadCosts(desc, cfg.threadOpts);
    b.threadSwitchUs = 2.0 * us(costs.userThreadSwitch);

    // Kernel processor reallocation, amortized over a burst of calls.
    Cycles realloc =
        sharedCostDb().cycles(desc.id, Primitive::NullSyscall) +
        sharedCostDb().cycles(desc.id, Primitive::ContextSwitch);
    b.reallocationUs =
        us(realloc) / std::max<std::uint32_t>(cfg.callsPerReallocation,
                                              1);

    // The components as one span group for an open traced request.
    if (spantraceEnabled()) {
        auto cyc = [&](double micros) {
            return desc.clock.microsToCycles(micros);
        };
        SpanGroup span("urpc");
        spanLeaf("locks", cyc(b.lockUs));
        spanLeaf("copy", cyc(b.copyUs));
        spanLeaf("thread_switch", cyc(b.threadSwitchUs));
        spanLeaf("reallocation", cyc(b.reallocationUs));
    }
    return b;
}

} // namespace aosd
