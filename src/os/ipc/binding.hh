/**
 * @file
 * LRPC binding objects and argument stacks (§2.2, [Bershad et al.
 * 90a]).
 *
 * Before a client may LRPC into a server it binds: the kernel
 * validates the interface, allocates a set of argument stacks
 * (A-stacks) shared read-write between the two domains, and returns a
 * Binding the client presents on every call. This module implements
 * the functional side — A-stack allocation/reuse, binding validation,
 * call linkage records — that the LRPC cost model prices.
 */

#ifndef AOSD_OS_IPC_BINDING_HH
#define AOSD_OS_IPC_BINDING_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "os/kernel/address_space.hh"

namespace aosd
{

/** One shared argument stack. */
struct AStack
{
    std::uint32_t id = 0;
    Vpn vpn = 0;           ///< mapped at the same VPN in both domains
    std::uint32_t bytes = 0;
    bool inUse = false;
};

/** A validated client/server communication channel. */
class Binding
{
  public:
    Binding(std::uint32_t id, const AddressSpace *client,
            const AddressSpace *server, std::uint32_t astacks,
            std::uint32_t astack_bytes, Vpn base_vpn);

    std::uint32_t id() const { return bindingId; }
    const AddressSpace *client() const { return clientSpace; }
    const AddressSpace *server() const { return serverSpace; }

    /** Claim a free A-stack for a call (nullopt when all are in use:
     *  the caller must wait, as concurrent calls exceed the set). */
    std::optional<std::uint32_t> acquireAStack();

    /** Return an A-stack after the call completes. */
    void releaseAStack(std::uint32_t astack_id);

    std::size_t freeAStacks() const;
    const std::vector<AStack> &aStacks() const { return stacks; }

  private:
    std::uint32_t bindingId;
    const AddressSpace *clientSpace;
    const AddressSpace *serverSpace;
    std::vector<AStack> stacks;
};

/**
 * The kernel's binding registry: servers export interfaces, clients
 * bind to them, calls validate the (binding, caller) pair — the check
 * the LRPC paper's "binding validation" time pays for.
 */
class BindingRegistry
{
  public:
    /** Server exports an interface by name. */
    void exportInterface(const std::string &name,
                         const AddressSpace &server);

    /** Client binds; returns binding id or nullopt if not exported. */
    std::optional<std::uint32_t> bind(const std::string &name,
                                      const AddressSpace &client,
                                      std::uint32_t astacks = 4,
                                      std::uint32_t astack_bytes = 256);

    /** Validate a call: the binding exists and belongs to `caller`. */
    bool validate(std::uint32_t binding_id,
                  const AddressSpace &caller) const;

    Binding *binding(std::uint32_t binding_id);

    /** bind() calls that named no exported interface. */
    std::uint64_t bindFailures() const { return failedBinds; }

  private:
    struct Export
    {
        std::string name;
        const AddressSpace *server;
    };

    std::vector<Export> exports;
    std::vector<Binding> bindings;
    Vpn nextSharedVpn = 0xE000;
    std::uint64_t failedBinds = 0;
};

} // namespace aosd

#endif // AOSD_OS_IPC_BINDING_HH
