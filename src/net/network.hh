/**
 * @file
 * Multi-node network: event-driven packet delivery over a shared
 * Ethernet segment. Used by the DSM subsystem (§3, Ivy-style shared
 * virtual memory) and the multi-node RPC examples.
 */

#ifndef AOSD_NET_NETWORK_HH
#define AOSD_NET_NETWORK_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "net/ethernet.hh"
#include "sim/event_queue.hh"

namespace aosd
{

/** Delivery callback: invoked at the destination when a packet lands. */
using PacketHandler = std::function<void(const Packet &)>;

/**
 * A broadcast segment connecting numbered nodes. Transmissions
 * serialize on the wire (one segment); each delivery schedules the
 * destination's handler on the shared event queue.
 */
class Network
{
  public:
    Network(EventQueue &queue, const EthernetDesc &link);

    /** Register a node; returns its id. */
    std::uint32_t addNode(PacketHandler handler);

    /** Queue a packet for transmission; delivery is scheduled after
     *  wire occupancy + controller latency at both ends. */
    void send(std::uint32_t src, std::uint32_t dst,
              std::uint32_t payload_bytes);

    std::size_t nodeCount() const { return handlers.size(); }
    /** Packets sent so far. */
    std::uint64_t packets() const { return nextPacketId; }
    const Ethernet &link() const { return ether; }

  private:
    EventQueue &events;
    Ethernet ether;
    std::vector<PacketHandler> handlers;
    Tick wireFreeAt = 0;
    std::uint64_t nextPacketId = 0;
};

} // namespace aosd

#endif // AOSD_NET_NETWORK_HH
