#include "os/ipc/binding.hh"

#include "sim/logging.hh"

namespace aosd
{

Binding::Binding(std::uint32_t id, const AddressSpace *client,
                 const AddressSpace *server, std::uint32_t astacks,
                 std::uint32_t astack_bytes, Vpn base_vpn)
    : bindingId(id), clientSpace(client), serverSpace(server)
{
    for (std::uint32_t i = 0; i < astacks; ++i) {
        AStack s;
        s.id = i;
        s.vpn = base_vpn + i;
        s.bytes = astack_bytes;
        stacks.push_back(s);
    }
}

std::optional<std::uint32_t>
Binding::acquireAStack()
{
    for (auto &s : stacks) {
        if (!s.inUse) {
            s.inUse = true;
            return s.id;
        }
    }
    return std::nullopt;
}

void
Binding::releaseAStack(std::uint32_t astack_id)
{
    if (astack_id >= stacks.size())
        panic("release of unknown A-stack %u", astack_id);
    stacks[astack_id].inUse = false;
}

std::size_t
Binding::freeAStacks() const
{
    std::size_t n = 0;
    for (const auto &s : stacks)
        n += !s.inUse;
    return n;
}

void
BindingRegistry::exportInterface(const std::string &name,
                                 const AddressSpace &server)
{
    for (const auto &e : exports)
        if (e.name == name)
            fatal("interface '%s' already exported", name.c_str());
    exports.push_back({name, &server});
}

std::optional<std::uint32_t>
BindingRegistry::bind(const std::string &name,
                      const AddressSpace &client,
                      std::uint32_t astacks,
                      std::uint32_t astack_bytes)
{
    for (const auto &e : exports) {
        if (e.name != name)
            continue;
        auto id = static_cast<std::uint32_t>(bindings.size());
        bindings.emplace_back(id, &client, e.server, astacks,
                              astack_bytes, nextSharedVpn);
        nextSharedVpn += astacks;
        return id;
    }
    ++failedBinds;
    return std::nullopt;
}

bool
BindingRegistry::validate(std::uint32_t binding_id,
                          const AddressSpace &caller) const
{
    if (binding_id >= bindings.size())
        return false;
    return bindings[binding_id].client() == &caller;
}

Binding *
BindingRegistry::binding(std::uint32_t binding_id)
{
    if (binding_id >= bindings.size())
        return nullptr;
    return &bindings[binding_id];
}

} // namespace aosd
