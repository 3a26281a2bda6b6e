#include "os/vm/dsm.hh"

#include "mem/page_table.hh"
#include "sim/logging.hh"

namespace aosd
{

IvyDsm::IvyDsm(const MachineDesc &machine, std::uint32_t nodes,
               std::uint64_t pages, EthernetDesc link)
    : desc(machine), rpc(machine, RpcConfig{link})
{
    if (nodes == 0)
        fatal("DSM needs at least one node");
    for (std::uint32_t i = 0; i < nodes; ++i) {
        kernels.push_back(std::make_unique<SimKernel>(machine));
        SimKernel &k = *kernels.back();
        AddressSpace &space = k.createSpace("dsm");
        PageProt prot;
        prot.writable = (i == 0);
        space.mapRange(0, pages, /*pfn=*/0x5000, prot);
        k.contextSwitchTo(space);
        k.resetAccounting(); // setup costs are not part of the run
    }
    pageStates.resize(pages);
    for (auto &ps : pageStates) {
        ps.owner = 0;
        ps.hasCopy.assign(nodes, false);
        ps.hasCopy[0] = true;
        ps.writerValid = true; // node 0 starts owning everything R/W
    }
}

double
IvyDsm::pageTransferUs() const
{
    // Request message out, page-sized reply back.
    return rpc.roundTrip(32, static_cast<std::uint32_t>(pageBytes))
        .totalUs();
}

double
IvyDsm::controlMessageUs() const
{
    return rpc.roundTrip(32, 8).totalUs();
}

DsmAccess
IvyDsm::access(std::uint32_t node, std::uint64_t page) const
{
    const PageState &ps = pageStates[page];
    if (ps.owner == node && ps.writerValid)
        return DsmAccess::Write;
    if (ps.hasCopy[node])
        return DsmAccess::Read;
    return DsmAccess::None;
}

std::uint32_t
IvyDsm::owner(std::uint64_t page) const
{
    return pageStates[page].owner;
}

std::uint32_t
IvyDsm::copyHolders(std::uint64_t page) const
{
    std::uint32_t n = 0;
    for (bool b : pageStates[page].hasCopy)
        n += b;
    return n;
}

double
IvyDsm::read(std::uint32_t node, std::uint64_t page)
{
    PageState &ps = pageStates[page];
    if (access(node, page) != DsmAccess::None)
        return desc.clock.cyclesToMicros(1); // local hit

    // Read fault: trap locally, fetch a replica from the owner, and
    // downgrade the owner's mapping to read-only (s3: "the writer's
    // copy [is] changed back to read-only").
    ++tally.readFaults;
    SimKernel &k = *kernels[node];
    k.trap();
    double us = pageTransferUs();
    ++tally.pageTransfers;

    SimKernel &ok = *kernels[ps.owner];
    if (ps.writerValid) {
        PageProt ro;
        ro.writable = false;
        ok.pteChange(ok.currentSpace(), page, ro);
        ps.writerValid = false;
    }
    ps.hasCopy[node] = true;
    // Map the replica read-only locally.
    PageProt ro;
    ro.writable = false;
    k.pteChange(k.currentSpace(), page, ro);
    return us + k.machine().clock.cyclesToMicros(
                    sharedCostDb().cycles(desc.id, Primitive::Trap));
}

double
IvyDsm::write(std::uint32_t node, std::uint64_t page)
{
    PageState &ps = pageStates[page];
    if (access(node, page) == DsmAccess::Write)
        return desc.clock.cyclesToMicros(1);

    // Write fault: invalidate every replica except the writer's,
    // transfer ownership (and the page if the writer has no copy).
    ++tally.writeFaults;
    SimKernel &k = *kernels[node];
    k.trap();
    double us = 0.0;

    if (!ps.hasCopy[node]) {
        us += pageTransferUs();
        ++tally.pageTransfers;
    }

    for (std::uint32_t n = 0; n < nodeCount(); ++n) {
        if (n == node || !ps.hasCopy[n])
            continue;
        us += controlMessageUs();
        ++tally.invalidations;
        SimKernel &nk = *kernels[n];
        nk.tlb().invalidate(page, nk.currentSpace().asid());
        ps.hasCopy[n] = false;
    }

    ps.owner = node;
    ps.hasCopy[node] = true;
    ps.writerValid = true;
    PageProt rw;
    rw.writable = true;
    k.pteChange(k.currentSpace(), page, rw);
    return us + k.machine().clock.cyclesToMicros(
                    sharedCostDb().cycles(desc.id, Primitive::Trap));
}

bool
IvyDsm::coherent() const
{
    for (const auto &ps : pageStates) {
        if (ps.writerValid) {
            // Writer must be the only holder.
            std::uint32_t holders = 0;
            for (bool b : ps.hasCopy)
                holders += b;
            if (holders != 1 || !ps.hasCopy[ps.owner])
                return false;
        }
        if (!ps.hasCopy[ps.owner] && ps.writerValid)
            return false;
    }
    return true;
}

} // namespace aosd
