#include "os/vm/vm_manager.hh"

#include "mem/cache.hh"
#include "sim/logging.hh"

namespace aosd
{

VmManager::VmManager(SimKernel &kernel, PhysMem *mem)
    : sim(kernel), physMem(mem)
{}

void
VmManager::mapZeroFill(AddressSpace &space, Vpn vpn, std::uint64_t pages,
                       PageProt prot)
{
    for (std::uint64_t i = 0; i < pages; ++i) {
        Pte pte;
        pte.pfn = allocFrame();
        pte.prot = prot;
        space.pageTable().map(vpn + i, pte);
    }
}

void
VmManager::shareCopyOnWrite(AddressSpace &src, Vpn src_vpn,
                            AddressSpace &dst, Vpn dst_vpn,
                            std::uint64_t pages)
{
    PageProt ro;
    ro.readable = true;
    ro.writable = false;
    for (std::uint64_t i = 0; i < pages; ++i) {
        WalkResult w = src.pageTable().walk(src_vpn + i);
        if (!w.pte)
            fatal("COW share of unmapped page");
        Pte pte = *w.pte;
        pte.copyOnWrite = true;
        pte.prot = ro;

        // Both sides now map the same frame read-only; the kernel
        // pays a PTE change per page to downgrade the source.
        sim.pteChange(src, src_vpn + i, ro);
        src.pageTable().update(src_vpn + i, pte);
        dst.pageTable().map(dst_vpn + i, pte);
        cowRefs[pte.pfn] += 2;
    }
}

void
VmManager::protect(AddressSpace &space, Vpn vpn, std::uint64_t pages,
                   PageProt prot)
{
    for (std::uint64_t i = 0; i < pages; ++i)
        sim.pteChange(space, vpn + i, prot);
}

void
VmManager::setUserHandler(AddressSpace &space, UserFaultHandler handler)
{
    handlers[&space] = std::move(handler);
}

FaultResult
VmManager::access(AddressSpace &space, Vpn vpn, bool write)
{
    WalkResult w = space.pageTable().walk(vpn);
    if (!w.pte) {
        sim.trap();
        return FaultResult::NotMapped;
    }
    const Pte &pte = *w.pte;
    bool allowed = write ? pte.prot.writable : pte.prot.readable;
    if (allowed)
        return FaultResult::Resolved;
    return handleFault(space, vpn, write, pte);
}

FaultResult
VmManager::handleFault(AddressSpace &space, Vpn vpn, bool write,
                       const Pte &pte)
{
    // Every fault enters the kernel through the trap machinery.
    sim.trap();
    sim.countOtherException();

    if (write && pte.copyOnWrite) {
        // Break the share: copy the page, remap writable.
        auto it = cowRefs.find(pte.pfn);
        Pte fresh = pte;
        fresh.copyOnWrite = false;
        fresh.prot.writable = true;
        if (it != cowRefs.end() && it->second > 1) {
            fresh.pfn = allocFrame();
            sim.chargeCycles(copyCycles(sim.machine(), pageBytes));
            if (--it->second == 1)
                it->second = 1; // last sharer keeps the original
        } else {
            cowRefs.erase(pte.pfn);
        }
        space.pageTable().update(vpn, fresh);
        sim.pteChange(space, vpn, fresh.prot);
        ++tally.cowBreaks;
        return FaultResult::CopiedOnWrite;
    }

    auto h = handlers.find(&space);
    if (h != handlers.end()) {
        // Reflect to user level: out of the kernel into the handler
        // and back in to resume — two boundary crossings (s3).
        sim.syscall();
        bool resolved = h->second(space, vpn, write);
        sim.syscall();
        ++tally.reflectedFaults;
        return resolved ? FaultResult::ReflectedToUser
                        : FaultResult::ProtectionError;
    }

    return FaultResult::ProtectionError;
}

std::uint64_t
VmManager::cowSharedFrames() const
{
    std::uint64_t n = 0;
    for (const auto &kv : cowRefs)
        if (kv.second > 1)
            ++n;
    return n;
}

} // namespace aosd
