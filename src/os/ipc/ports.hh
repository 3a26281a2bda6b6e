/**
 * @file
 * Mach-style ports and messages (§2, §5).
 *
 * The decomposed system's services "communicate with users, with the
 * kernel, and with each other through message passing": kernel-owned
 * port queues with capability-like send/receive rights. This module
 * is the functional substrate of that claim — allocation, rights,
 * bounded queues, blocking receives — instrumented through SimKernel
 * so one RPC demonstrably costs "at least two system calls and two
 * context switches" (§5).
 */

#ifndef AOSD_OS_IPC_PORTS_HH
#define AOSD_OS_IPC_PORTS_HH

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "os/kernel/kernel.hh"

namespace aosd
{

/** Port name (kernel-wide). */
using PortId = std::uint32_t;

/** A message in flight. */
struct PortMessage
{
    PortId port = 0;
    std::uint32_t bytes = 0;
    const AddressSpace *sender = nullptr;
    /** Port on which a reply is expected (0 = none). */
    PortId replyPort = 0;
    std::uint64_t id = 0;
};

/** Outcome of a send/receive attempt. */
enum class PortResult
{
    Success,
    NoSuchPort,
    NoRight,
    QueueFull,
    WouldBlock, ///< receive on an empty queue
};

/** The kernel's port name space. */
class PortSpace
{
  public:
    struct Counts
    {
        std::uint64_t rightsViolations = 0;
        /** Messages still queued on a port when it was destroyed. */
        std::uint64_t droppedMessages = 0;
    };

    explicit PortSpace(SimKernel &kernel,
                       std::uint32_t queue_limit = 16);

    /** Allocate a port; the owner holds the receive right. */
    PortId allocate(const AddressSpace &owner);

    /** Destroy a port; queued messages are dropped. */
    bool destroy(PortId port, const AddressSpace &caller);

    /** Grant a send right to another domain. */
    bool grantSendRight(PortId port, const AddressSpace &to);

    /**
     * Send a message (a system call: charged and counted). Validates
     * the sender's right and the queue bound.
     */
    PortResult send(const AddressSpace &sender, PortId port,
                    std::uint32_t bytes, PortId reply_port = 0);

    /**
     * Receive the next message (a system call). Only the receive-
     * right holder may receive; an empty queue returns WouldBlock
     * (the caller parks its thread and retries after a wakeup).
     */
    PortResult receive(const AddressSpace &receiver, PortId port,
                       PortMessage &out);

    std::size_t queued(PortId port) const;
    bool hasSendRight(PortId port, const AddressSpace &space) const;

    const Counts &counts() const { return tally; }

  private:
    struct Port
    {
        const AddressSpace *owner = nullptr;
        std::set<const AddressSpace *> senders;
        std::deque<PortMessage> queue;
    };

    SimKernel &sim;
    std::uint32_t queueLimit;
    std::map<PortId, Port> ports;
    PortId nextPort = 1;
    std::uint64_t nextMsg = 0;
    Counts tally;
};

/**
 * One synchronous RPC over a pair of ports: send request, switch to
 * the server, server receives + replies, switch back, receive the
 * reply. Returns false on any rights/queue failure. Exists to make
 * the §5 cost identity ("at least two system calls and two context
 * switches ... to do the work of one system call") executable.
 */
bool portRpc(SimKernel &kernel, PortSpace &ports,
             AddressSpace &client, AddressSpace &server,
             PortId service_port, PortId reply_port,
             std::uint32_t request_bytes, std::uint32_t reply_bytes);

} // namespace aosd

#endif // AOSD_OS_IPC_PORTS_HH
