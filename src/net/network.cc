#include "net/network.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace aosd
{

Network::Network(EventQueue &queue, const EthernetDesc &link)
    : events(queue), ether(link)
{}

std::uint32_t
Network::addNode(PacketHandler handler)
{
    handlers.push_back(std::move(handler));
    return static_cast<std::uint32_t>(handlers.size() - 1);
}

void
Network::send(std::uint32_t src, std::uint32_t dst,
              std::uint32_t payload_bytes)
{
    if (src >= handlers.size() || dst >= handlers.size())
        panic("send between unregistered nodes");

    Packet pkt{payload_bytes, src, dst, nextPacketId++};

    // The segment is shared: a frame starts when the wire is free.
    Tick start = std::max(events.now() + ether.controllerTime(),
                          wireFreeAt);
    Tick end = start + ether.wireTime(payload_bytes);
    wireFreeAt = end;
    Tick deliver = end + ether.controllerTime();

    events.schedule(deliver, [this, pkt] {
        handlers[pkt.dstNode](pkt);
    });
}

} // namespace aosd
