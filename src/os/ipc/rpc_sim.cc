#include "os/ipc/rpc_sim.hh"

#include "mem/cache.hh"
#include "os/ipc/message.hh"
#include "sim/logging.hh"

namespace aosd
{

/** One endpoint: a kernel plus helpers to charge CPU phases. */
struct RpcSimulation::Node
{
    explicit Node(const MachineDesc &m) : kernel(m) {}

    SimKernel kernel;

    /** Charge raw cycles; returns their duration in microseconds. */
    double
    charge(Cycles c)
    {
        kernel.chargeCycles(c);
        return kernel.machine().clock.cyclesToMicros(c);
    }

    /** Counted primitives (SimKernel charges internally); returns
     *  the duration so the event chain can advance wall time. */
    double
    syscall()
    {
        Cycles before = kernel.elapsedCycles();
        kernel.syscall();
        return kernel.machine().clock.cyclesToMicros(
            kernel.elapsedCycles() - before);
    }

    double
    trap()
    {
        Cycles before = kernel.elapsedCycles();
        kernel.trap();
        return kernel.machine().clock.cyclesToMicros(
            kernel.elapsedCycles() - before);
    }

    double
    threadSwitch()
    {
        Cycles before = kernel.elapsedCycles();
        kernel.threadSwitch();
        return kernel.machine().clock.cyclesToMicros(
            kernel.elapsedCycles() - before);
    }
};

RpcSimulation::RpcSimulation(const MachineDesc &machine,
                             RpcConfig config)
    : desc(machine), cfg(std::move(config))
{}

RpcSimResult
RpcSimulation::run(std::uint64_t calls, std::uint32_t arg_bytes,
                   std::uint32_t result_bytes)
{
    EventQueue events;
    Network net(events, cfg.link);
    Node client(desc), server(desc);

    const std::uint32_t call_pkt = arg_bytes + cfg.protocolHeaderBytes;
    const std::uint32_t reply_pkt =
        result_bytes + cfg.protocolHeaderBytes;
    const Cycles interrupt_body =
        cfg.interruptHandlerInstructions +
        static_cast<Cycles>(cfg.interruptDeviceAccesses) *
            desc.cache.uncachedCycles;

    RpcSimResult result;
    std::uint64_t remaining = calls;
    std::function<void()> start_call;
    std::uint32_t client_id = 0, server_id = 0;

    auto after = [&events](double us, std::function<void()> fn) {
        events.scheduleAfter(
            static_cast<Tick>(us * ticksPerMicrosecond),
            std::move(fn));
    };

    // Server: request arrives -> receive, service, reply.
    server_id = net.addNode([&](const Packet &) {
        double us = 0;
        us += server.trap(); // receive interrupt
        us += server.charge(interrupt_body);
        us += server.charge(checksumCycles(desc, call_pkt));
        us += server.charge(copyCycles(desc, arg_bytes));
        us += server.threadSwitch(); // wake the server thread
        us += server.charge(cfg.dispatchInstructions);
        us += server.syscall(); // return from receive
        us += server.charge(cfg.serverStubInstructions);
        us += server.charge(copyCycles(desc, result_bytes));
        us += server.charge(checksumCycles(desc, reply_pkt));
        us += server.syscall(); // send the reply
        us += server.threadSwitch(); // block for the next request
        us += server.trap(); // transmit-done interrupt
        us += server.charge(interrupt_body / 2);
        after(us, [&net, server_id, client_id, reply_pkt] {
            net.send(server_id, client_id, reply_pkt);
        });
    });

    // Client: reply arrives -> unpack, complete, maybe start again.
    client_id = net.addNode([&](const Packet &) {
        double us = 0;
        us += client.trap(); // receive interrupt
        us += client.charge(interrupt_body);
        us += client.charge(checksumCycles(desc, reply_pkt));
        us += client.charge(copyCycles(desc, result_bytes));
        us += client.threadSwitch(); // resume the caller
        us += client.syscall();      // return from receive
        after(us, [&] {
            ++result.calls;
            if (--remaining > 0)
                start_call();
        });
    });

    start_call = [&] {
        double us = 0;
        us += client.charge(cfg.clientStubInstructions);
        us += client.charge(copyCycles(desc, arg_bytes));
        us += client.charge(checksumCycles(desc, call_pkt));
        us += client.syscall();      // send
        us += client.threadSwitch(); // block awaiting the reply
        us += client.trap();         // transmit-done interrupt
        us += client.charge(interrupt_body / 2);
        after(us, [&net, client_id, server_id, call_pkt] {
            net.send(client_id, server_id, call_pkt);
        });
    };

    if (calls == 0)
        return result;

    Tick run_start = events.now();
    start_call();
    events.run();

    Tick elapsed = events.now() - run_start;
    result.elapsedUs =
        static_cast<double>(elapsed) / ticksPerMicrosecond;
    result.latencyUs = result.elapsedUs /
                       static_cast<double>(std::max<std::uint64_t>(
                           result.calls, 1));
    result.clientCpuUs = client.kernel.elapsedMicros();
    result.serverCpuUs = server.kernel.elapsedMicros();
    result.packets = net.packets();
    return result;
}

} // namespace aosd
