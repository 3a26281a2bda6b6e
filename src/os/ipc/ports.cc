#include "os/ipc/ports.hh"

#include "sim/logging.hh"

namespace aosd
{

PortSpace::PortSpace(SimKernel &kernel, std::uint32_t queue_limit)
    : sim(kernel), queueLimit(queue_limit)
{}

PortId
PortSpace::allocate(const AddressSpace &owner)
{
    PortId id = nextPort++;
    Port p;
    p.owner = &owner;
    p.senders.insert(&owner);
    ports.emplace(id, std::move(p));
    return id;
}

bool
PortSpace::destroy(PortId port, const AddressSpace &caller)
{
    auto it = ports.find(port);
    if (it == ports.end() || it->second.owner != &caller)
        return false;
    tally.droppedMessages += it->second.queue.size();
    ports.erase(it);
    return true;
}

bool
PortSpace::grantSendRight(PortId port, const AddressSpace &to)
{
    auto it = ports.find(port);
    if (it == ports.end())
        return false;
    it->second.senders.insert(&to);
    return true;
}

PortResult
PortSpace::send(const AddressSpace &sender, PortId port,
                std::uint32_t bytes, PortId reply_port)
{
    // Every send is a kernel call (charged + counted).
    sim.syscall();
    auto it = ports.find(port);
    if (it == ports.end())
        return PortResult::NoSuchPort;
    Port &p = it->second;
    if (!p.senders.count(&sender)) {
        ++tally.rightsViolations;
        return PortResult::NoRight;
    }
    if (p.queue.size() >= queueLimit)
        return PortResult::QueueFull;
    PortMessage msg;
    msg.port = port;
    msg.bytes = bytes;
    msg.sender = &sender;
    msg.replyPort = reply_port;
    msg.id = nextMsg++;
    p.queue.push_back(msg);
    return PortResult::Success;
}

PortResult
PortSpace::receive(const AddressSpace &receiver, PortId port,
                   PortMessage &out)
{
    sim.syscall();
    auto it = ports.find(port);
    if (it == ports.end())
        return PortResult::NoSuchPort;
    Port &p = it->second;
    if (p.owner != &receiver) {
        ++tally.rightsViolations;
        return PortResult::NoRight;
    }
    if (p.queue.empty())
        return PortResult::WouldBlock;
    out = p.queue.front();
    p.queue.pop_front();
    return PortResult::Success;
}

std::size_t
PortSpace::queued(PortId port) const
{
    auto it = ports.find(port);
    return it == ports.end() ? 0 : it->second.queue.size();
}

bool
PortSpace::hasSendRight(PortId port, const AddressSpace &space) const
{
    auto it = ports.find(port);
    return it != ports.end() && it->second.senders.count(&space) > 0;
}

bool
portRpc(SimKernel &kernel, PortSpace &ports, AddressSpace &client,
        AddressSpace &server, PortId service_port, PortId reply_port,
        std::uint32_t request_bytes, std::uint32_t reply_bytes)
{
    // Client sends the request and hands off to the server.
    if (ports.send(client, service_port, request_bytes, reply_port) !=
        PortResult::Success)
        return false;
    kernel.contextSwitchTo(server);

    PortMessage req;
    if (ports.receive(server, service_port, req) !=
        PortResult::Success)
        return false;

    // Server replies and the client resumes.
    if (ports.send(server, req.replyPort, reply_bytes) !=
        PortResult::Success)
        return false;
    kernel.contextSwitchTo(client);

    PortMessage reply;
    return ports.receive(client, reply_port, reply) ==
           PortResult::Success;
}

} // namespace aosd
