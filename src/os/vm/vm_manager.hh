/**
 * @file
 * Virtual memory manager (§3).
 *
 * Implements the fault pipeline modern OSes overload protection bits
 * for: copy-on-write message buffers (Accent/Mach), user-level fault
 * reflection (garbage collection, checkpointing, recoverable VM,
 * transaction locking), and efficient protection changes. Every fault
 * is charged through SimKernel's simulated primitives: a COW fault is
 * a trap + a page copy + a PTE change; a reflected fault additionally
 * crosses the kernel boundary twice to reach the user handler (§3:
 * "systems must find a way of quickly reflecting page faults back to
 * the user level").
 */

#ifndef AOSD_OS_VM_VM_MANAGER_HH
#define AOSD_OS_VM_VM_MANAGER_HH

#include <cstdint>
#include <functional>
#include <map>

#include "mem/phys_mem.hh"
#include "os/kernel/kernel.hh"

namespace aosd
{

/** What the fault pipeline did with a fault. */
enum class FaultResult
{
    NotMapped,        ///< segmentation violation
    ProtectionError,  ///< mapped but access forbidden, no handler
    CopiedOnWrite,    ///< COW break: page duplicated, write retried
    ReflectedToUser,  ///< delivered to a registered user-level handler
    Resolved,         ///< demand-zero fill or simple upgrade
};

/** User-level fault handler: returns true if it resolved the fault. */
using UserFaultHandler =
    std::function<bool(AddressSpace &, Vpn, bool write)>;

/** Per-space VM management on top of one SimKernel. */
class VmManager
{
  public:
    /** COW breaks and faults reflected to a user handler. */
    struct Counts
    {
        std::uint64_t cowBreaks = 0;
        std::uint64_t reflectedFaults = 0;
    };

    /** @param mem optional frame allocator; when absent, frames come
     *  from an internal monotonic counter. */
    explicit VmManager(SimKernel &kernel, PhysMem *mem = nullptr);

    /** Map `pages` demand-zero pages at vpn with `prot`. */
    void mapZeroFill(AddressSpace &space, Vpn vpn, std::uint64_t pages,
                     PageProt prot);

    /**
     * Share `pages` copy-on-write from src to dst (the Mach large-
     * message optimization, §3): both mappings become read-only and
     * marked COW; the first write by either side copies.
     */
    void shareCopyOnWrite(AddressSpace &src, Vpn src_vpn,
                          AddressSpace &dst, Vpn dst_vpn,
                          std::uint64_t pages);

    /** Change protection (charges the PTE-change primitive, keeps TLB
     *  and virtual cache consistent). */
    void protect(AddressSpace &space, Vpn vpn, std::uint64_t pages,
                 PageProt prot);

    /** Register a user-level handler for faults in `space` (external
     *  pager / GC barrier style). */
    void setUserHandler(AddressSpace &space, UserFaultHandler handler);

    /** Deliver a memory access; faults run the pipeline. */
    FaultResult access(AddressSpace &space, Vpn vpn, bool write);

    /** Frames shared COW right now (for tests). */
    std::uint64_t cowSharedFrames() const;

    SimKernel &kernel() { return sim; }

    const Counts &counts() const { return tally; }

  private:
    FaultResult handleFault(AddressSpace &space, Vpn vpn, bool write,
                            const Pte &pte);

    Pfn
    allocFrame()
    {
        return physMem ? physMem->alloc() : nextFrame++;
    }

    SimKernel &sim;
    PhysMem *physMem = nullptr;
    Pfn nextFrame = 0x100000;
    /** Reference counts of COW-shared frames. */
    std::map<Pfn, std::uint32_t> cowRefs;
    std::map<const AddressSpace *, UserFaultHandler> handlers;
    Counts tally;
};

} // namespace aosd

#endif // AOSD_OS_VM_VM_MANAGER_HH
