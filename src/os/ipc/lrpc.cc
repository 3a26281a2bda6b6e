#include "os/ipc/lrpc.hh"

#include "cpu/primitive_costs.hh"
#include "mem/cache.hh"
#include "sim/counters/counters.hh"
#include "sim/observers.hh"
#include "sim/spantrace/spantrace.hh"
#include "sim/trace.hh"

namespace aosd
{

namespace
{

/**
 * Run `round_trips` LRPCs on a fresh kernel and return the TLB misses
 * counted during the final one (steady state).
 */
std::uint64_t
simulateTlbMisses(const MachineDesc &desc, const LrpcConfig &cfg,
                  unsigned round_trips)
{
    // A helper simulation inside an analytic model: its charges must
    // not nest phantom spans into an open request.
    ObserverPause pause;
    SimKernel kernel(desc);
    AddressSpace &client = kernel.createSpace("client");
    AddressSpace &server = kernel.createSpace("server");
    client.setWorkingSet(0x1000, cfg.clientWorkingSetPages);
    server.setWorkingSet(0x2000, cfg.serverWorkingSetPages);
    // Map the working sets so walks succeed.
    client.mapRange(0x1000, cfg.clientWorkingSetPages, 0x9000, {});
    server.mapRange(0x2000, cfg.serverWorkingSetPages, 0xa000, {});

    kernel.contextSwitchTo(client); // start in the client

    std::uint64_t before = 0;
    for (unsigned i = 0; i < round_trips; ++i) {
        before = kernel.counts().userTlbMisses +
                 kernel.counts().kernelTlbMisses;
        kernel.syscall();
        kernel.contextSwitchTo(server);
        kernel.syscall();
        kernel.contextSwitchTo(client);
    }
    std::uint64_t after = kernel.counts().userTlbMisses +
                          kernel.counts().kernelTlbMisses;
    return after - before;
}

} // namespace

LrpcModel::LrpcModel(const MachineDesc &machine, LrpcConfig config)
    : desc(machine), cfg(config)
{}

std::uint64_t
LrpcModel::steadyStateTlbMisses() const
{
    return simulateTlbMisses(desc, cfg, 4);
}

LrpcBreakdown
LrpcModel::nullCall() const
{
    const PrimitiveCostDb &db = sharedCostDb();
    auto us = [&](Cycles c) { return desc.clock.cyclesToMicros(c); };

    LrpcBreakdown b;
    b.stubUs = 2.0 * us(cfg.stubInstructions);
    b.kernelEntryUs =
        2.0 * db.micros(desc.id, Primitive::NullSyscall);
    b.validationUs = 2.0 * us(cfg.validationInstructions);
    b.contextSwitchUs =
        2.0 * db.micros(desc.id, Primitive::ContextSwitch);

    // Simulated refills: on tagged TLBs this is ~0 in steady state;
    // untagged TLBs refill both domains' working sets every trip.
    std::uint64_t misses = steadyStateTlbMisses();
    Cycles miss_cost = desc.tlb.management == TlbManagement::Hardware
                           ? desc.tlb.hwMissCycles
                           : desc.tlb.swUserMissCycles;
    b.tlbMissUs = us(misses * miss_cost);

    // One copy onto the shared A-stack per direction.
    b.argCopyUs = 2.0 * us(copyCycles(desc, cfg.argBytes));

    // Call + reply ride the same-machine fast path.
    countEvent(HwCounter::IpcMessages, 2);
    countEvent(HwCounter::IpcFastPath);
    countEvent(HwCounter::IpcBytesCopied, 2ull * cfg.argBytes);

    auto cyc = [&](double micros) {
        return desc.clock.microsToCycles(micros);
    };

    // The components, mirroring the breakdown Table 4 reports, as one
    // span group for an open traced request.
    if (spantraceEnabled()) {
        SpanGroup span("lrpc");
        spanLeaf("stubs", cyc(b.stubUs));
        spanLeaf("kernel_entry", cyc(b.kernelEntryUs));
        spanLeaf("validation", cyc(b.validationUs));
        spanLeaf("context_switch", cyc(b.contextSwitchUs));
        spanLeaf("tlb_refill", cyc(b.tlbMissUs));
        spanLeaf("arg_copy", cyc(b.argCopyUs));
    }

    // Lay the components on the trace timeline in call order.
    Tracer &tr = Tracer::instance();
    if (tr.enabled()) {
        tr.completeHere(cyc(b.stubUs), TraceEvent::RpcPhase,
                        "lrpc_stubs");
        tr.completeHere(cyc(b.kernelEntryUs), TraceEvent::RpcPhase,
                        "lrpc_kernel_entry");
        tr.completeHere(cyc(b.validationUs), TraceEvent::RpcPhase,
                        "lrpc_validation");
        tr.completeHere(cyc(b.contextSwitchUs), TraceEvent::RpcPhase,
                        "lrpc_context_switch");
        tr.completeHere(cyc(b.tlbMissUs), TraceEvent::RpcPhase,
                        "lrpc_tlb_refill", misses);
        tr.completeHere(cyc(b.argCopyUs), TraceEvent::RpcPhase,
                        "lrpc_arg_copy");
    }
    return b;
}

} // namespace aosd
