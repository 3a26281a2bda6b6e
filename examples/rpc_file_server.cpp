/**
 * @file
 * Example: an event-driven network file server (§2.1).
 *
 * Three client workstations issue read RPCs against one file server
 * over a shared 10 Mbit Ethernet, all simulated event-by-event: the
 * request packet rides the Network, the server's interrupt handler
 * wakes a server thread through the Scheduler, the reply carries the
 * data back. Demonstrates EventQueue + Network + Scheduler + the
 * per-packet primitive costs working together, and reports the
 * end-to-end latency decomposition the paper's Table 3 discusses.
 *
 * Run: ./build/examples/example_rpc_file_server
 */

#include <cstdio>
#include <deque>

#include "core/aosd.hh"

using namespace aosd;

namespace
{

struct Server
{
    SimKernel kernel;
    Scheduler sched;
    AddressSpace &space;
    std::deque<Packet> requestQueue;
    Scheduler::ThreadId worker = 0;
    Network *net = nullptr;
    std::uint64_t served = 0;

    explicit Server(const MachineDesc &m)
        : kernel(m), sched(kernel),
          space(kernel.createSpace("file-server"))
    {
        space.setWorkingSet(0x5000, 24);
        space.mapRange(0x5000, 24, 0x30000, {});
        worker = sched.spawn("worker", space, [this] {
            if (requestQueue.empty())
                return ThreadRunState::Blocked;
            Packet req = requestQueue.front();
            requestQueue.pop_front();
            // Service: syscall to receive, file cache lookup, reply.
            kernel.syscall();
            kernel.runUserCode(3000);
            kernel.syscall();
            net->send(req.dstNode, req.srcNode, 1024); // data block
            ++served;
            return ThreadRunState::Ready;
        });
        sched.run(); // worker blocks awaiting requests
    }

    void
    onPacket(const Packet &pkt)
    {
        kernel.trap(); // receive interrupt
        requestQueue.push_back(pkt);
        sched.wake(worker);
        sched.run();
    }
};

} // namespace

int
main()
{
    const MachineDesc &m = sharedCostDb().machine(MachineId::R3000);
    EventQueue events;
    Network net(events, EthernetDesc{});

    Server server(m);
    server.net = &net;

    std::uint32_t replies[3] = {0, 0, 0};
    Tick first_sent = 0;

    // Clients are nodes 0-2; the server is node 3.
    std::uint32_t client_ids[3];
    for (std::uint32_t c = 0; c < 3; ++c) {
        client_ids[c] = net.addNode([&replies, c](const Packet &) {
            ++replies[c];
        });
    }
    std::uint32_t server_id =
        net.addNode([&server](const Packet &p) { server.onPacket(p); });

    // Each client fires 20 read requests, staggered.
    for (std::uint32_t c = 0; c < 3; ++c) {
        for (int i = 0; i < 20; ++i) {
            Tick when = (c * 37 + static_cast<Tick>(i) * 150) *
                        ticksPerMicrosecond;
            events.schedule(when, [&net, &client_ids, &server_id, c] {
                net.send(client_ids[c], server_id, 96);
            });
        }
    }
    first_sent = 0;
    events.run();

    double elapsed_ms = static_cast<double>(events.now() - first_sent) /
                        ticksPerMillisecond;
    std::printf("file server: %llu requests served in %.2f ms of "
                "simulated time\n",
                static_cast<unsigned long long>(server.served),
                elapsed_ms);
    std::printf("replies per client: %u %u %u\n", replies[0],
                replies[1], replies[2]);
    std::printf("server kernel: %llu syscalls, %llu interrupts, "
                "%llu dispatches\n",
                static_cast<unsigned long long>(
                    server.kernel.counts().syscalls),
                static_cast<unsigned long long>(
                    server.kernel.counts().traps),
                static_cast<unsigned long long>(
                    server.sched.counts().dispatches));
    std::printf("network: %llu packets\n",
                static_cast<unsigned long long>(net.packets()));

    double server_cpu_us = server.kernel.elapsedMicros();
    std::printf("\nserver CPU time: %.0f us — %.0f%% of it in OS "
                "primitives\n",
                server_cpu_us,
                100.0 *
                    static_cast<double>(
                        server.kernel.primitiveCycles()) /
                    static_cast<double>(server.kernel.elapsedCycles()));
    std::printf("(s2.1: per-request OS overhead — interrupts, "
                "syscalls, dispatch — bounds RPC\nservice rates well "
                "before the wire does)\n");
    return 0;
}
