/**
 * @file
 * Page table interface.
 *
 * Section 3.2 contrasts three structures: the VAX's linear tables
 * (problematic for sparse address spaces), the SPARC/Cypress 3-level
 * tree with terminal superpage PTEs at any level, and the MIPS
 * software-managed scheme where the OS picks any structure it likes
 * (we provide a hashed table). All three implement this interface so
 * the VM subsystem and the benches can swap them.
 */

#ifndef AOSD_MEM_PAGE_TABLE_HH
#define AOSD_MEM_PAGE_TABLE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "mem/tlb.hh"

namespace aosd
{

/** Size of a base page in bytes (4KB everywhere in the paper's era). */
constexpr std::uint64_t pageBytes = 4096;
constexpr std::uint64_t pageShift = 12;

/** A translation record. */
struct Pte
{
    Pfn pfn = 0;
    PageProt prot;
    bool referenced = false;
    bool dirty = false;
    /** Copy-on-write marker used by the VM layer. */
    bool copyOnWrite = false;
};

/** Result of a table walk. */
struct WalkResult
{
    std::optional<Pte> pte;
    /** Memory references the hardware/software walker performed. */
    std::uint32_t memoryRefs = 0;
    /** Levels traversed (1 for linear/hashed hit). */
    std::uint32_t levels = 0;
};

/** Abstract page table for one address space. */
class PageTable
{
  public:
    virtual ~PageTable() = default;

    /** Map vpn -> pte (creates intermediate structures as needed). */
    virtual void map(Vpn vpn, const Pte &pte) = 0;

    /** Remove a mapping; no-op if absent. */
    virtual void unmap(Vpn vpn) = 0;

    /** Walk the table. */
    virtual WalkResult walk(Vpn vpn) const = 0;

    /** Change protection on an existing mapping in place, keeping
     *  every other PTE field. Under a superpage this changes the
     *  region's one terminal PTE.
     *  @return false if the page is not mapped (nothing changes). */
    virtual bool protect(Vpn vpn, PageProt prot) = 0;

    /** Update a full PTE in place. @return false if unmapped or, on
     *  the multi-level table, covered by a superpage. */
    virtual bool update(Vpn vpn, const Pte &pte);

    /**
     * Map a 256KB-aligned region with a single terminal superpage PTE
     * (one TLB entry for the whole region, §3.2). Only the multi-level
     * table supports this.
     * @return false when the structure has no superpage support.
     */
    virtual bool mapSuperpage(Vpn base_vpn, const Pte &pte);

    /** Pages covered by one superpage mapping (64 x 4KB = 256KB). */
    static constexpr std::uint64_t superpagePages = 64;

    /** Number of mappings installed. */
    virtual std::uint64_t mappedPages() const = 0;

    /** Bytes of memory consumed by table structures themselves —
     *  the sparse-address-space overhead §3.2 calls "problematic on a
     *  linear page table system like the VAX". */
    virtual std::uint64_t tableOverheadBytes() const = 0;

    virtual std::string structureName() const = 0;
};

/** VAX-style linear table: contiguous PTE array per region. */
std::unique_ptr<PageTable> makeLinearPageTable(Vpn max_vpn);

/** SPARC/Cypress 3-level tree; supports terminal superpage PTEs. */
std::unique_ptr<PageTable> makeMultiLevelPageTable();

/** Software-chosen hashed (inverted-style) table for MIPS/RS6000. */
std::unique_ptr<PageTable> makeHashedPageTable(std::uint64_t buckets);

/** Build the natural page table for a machine. */
std::unique_ptr<PageTable> makePageTableFor(const MachineDesc &machine);

} // namespace aosd

#endif // AOSD_MEM_PAGE_TABLE_HH
