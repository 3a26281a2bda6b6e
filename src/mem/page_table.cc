#include "mem/page_table.hh"

#include <map>
#include <unordered_map>
#include <vector>

#include "sim/logging.hh"

namespace aosd
{

bool
PageTable::update(Vpn vpn, const Pte &pte)
{
    WalkResult r = walk(vpn);
    if (!r.pte)
        return false;
    map(vpn, pte);
    return true;
}

bool
PageTable::mapSuperpage(Vpn, const Pte &)
{
    return false;
}

namespace
{

/**
 * VAX-style linear page table: one contiguous array of PTEs indexed by
 * VPN. Simple and fast, but the array must span from page 0 to the
 * highest mapped page, so sparse address spaces waste table memory.
 */
class LinearPageTable : public PageTable
{
  public:
    explicit LinearPageTable(Vpn max_vpn) : maxVpn(max_vpn) {}

    void
    map(Vpn vpn, const Pte &pte) override
    {
        if (vpn > maxVpn)
            fatal("vpn %llu beyond linear table limit",
                  static_cast<unsigned long long>(vpn));
        if (vpn >= table.size())
            table.resize(vpn + 1);
        if (!table[vpn].valid)
            ++mapped;
        table[vpn] = Slot{true, pte};
    }

    void
    unmap(Vpn vpn) override
    {
        if (vpn < table.size() && table[vpn].valid) {
            table[vpn].valid = false;
            --mapped;
        }
    }

    WalkResult
    walk(Vpn vpn) const override
    {
        WalkResult r;
        r.memoryRefs = 1;
        r.levels = 1;
        if (vpn < table.size() && table[vpn].valid)
            r.pte = table[vpn].pte;
        return r;
    }

    bool
    protect(Vpn vpn, PageProt prot) override
    {
        if (vpn >= table.size() || !table[vpn].valid)
            return false;
        table[vpn].pte.prot = prot;
        return true;
    }

    std::uint64_t mappedPages() const override { return mapped; }

    std::uint64_t
    tableOverheadBytes() const override
    {
        // 4 bytes per PTE slot over the whole span, the VAX cost of
        // sparseness.
        return table.size() * 4;
    }

    std::string structureName() const override { return "linear"; }

  private:
    struct Slot
    {
        bool valid = false;
        Pte pte;
    };

    Vpn maxVpn;
    std::vector<Slot> table;
    std::uint64_t mapped = 0;
};

/**
 * SPARC/Cypress 3-level tree. Level 1 maps 4GB in 16MB regions, level
 * 2 maps 16MB in 256KB regions, level 3 maps 256KB in 4KB pages. A
 * terminal PTE may appear at level 1 or 2, mapping the whole region
 * with one entry (and hence one TLB entry, §3.2).
 */
class MultiLevelPageTable : public PageTable
{
  public:
    // 4KB pages: 20-bit VPN. L3 index: low 6 bits (64 pages = 256KB);
    // L2 index: next 6 bits (64 * 256KB = 16MB); L1: top 8 bits.
    static constexpr unsigned l3Bits = 6;
    static constexpr unsigned l2Bits = 6;

    void
    map(Vpn vpn, const Pte &pte) override
    {
        auto [i1, i2, i3] = split(vpn);
        Level2 &l2 = level1[i1];
        Level3 &l3 = l2.children[i2];
        auto [it, inserted] = l3.ptes.emplace(i3, pte);
        if (!inserted)
            it->second = pte;
        else
            ++mapped;
    }

    /** Map an aligned 256KB region with a single level-2 terminal PTE. */
    bool
    mapSuperpage(Vpn base_vpn, const Pte &pte) override
    {
        if (base_vpn & ((1 << l3Bits) - 1))
            fatal("superpage base not 256KB aligned");
        auto [i1, i2, i3] = split(base_vpn);
        (void)i3;
        level1[i1].terminals[i2] = pte;
        return true;
    }

    /** Edit the PTE in place. Under a superpage that is the region's
     *  one terminal PTE, so the whole 256KB region changes with it. */
    bool
    protect(Vpn vpn, PageProt prot) override
    {
        Pte *pte = entry(vpn).first;
        if (!pte)
            return false;
        pte->prot = prot;
        return true;
    }

    /** False under a superpage: one page cannot take its own PTE. */
    bool
    update(Vpn vpn, const Pte &pte) override
    {
        auto [found, terminal] = entry(vpn);
        if (!found || terminal)
            return false;
        *found = pte;
        return true;
    }

    void
    unmap(Vpn vpn) override
    {
        auto [i1, i2, i3] = split(vpn);
        auto it1 = level1.find(i1);
        if (it1 == level1.end())
            return;
        it1->second.terminals.erase(i2);
        auto it2 = it1->second.children.find(i2);
        if (it2 == it1->second.children.end())
            return;
        if (it2->second.ptes.erase(i3))
            --mapped;
    }

    WalkResult
    walk(Vpn vpn) const override
    {
        WalkResult r;
        auto [i1, i2, i3] = split(vpn);
        r.memoryRefs = 1;
        r.levels = 1;
        auto it1 = level1.find(i1);
        if (it1 == level1.end())
            return r;
        // Terminal superpage at level 2?
        auto itT = it1->second.terminals.find(i2);
        ++r.memoryRefs;
        r.levels = 2;
        if (itT != it1->second.terminals.end()) {
            Pte pte = itT->second;
            pte.pfn += i3; // region is physically contiguous
            r.pte = pte;
            return r;
        }
        auto it2 = it1->second.children.find(i2);
        if (it2 == it1->second.children.end())
            return r;
        ++r.memoryRefs;
        r.levels = 3;
        auto it3 = it2->second.ptes.find(i3);
        if (it3 != it2->second.ptes.end())
            r.pte = it3->second;
        return r;
    }

    std::uint64_t mappedPages() const override { return mapped; }

    std::uint64_t
    tableOverheadBytes() const override
    {
        // 4-byte entries; 256-entry L1, 64-entry L2/L3 tables.
        std::uint64_t bytes = 256 * 4;
        for (const auto &kv1 : level1) {
            bytes += 64 * 4;
            bytes += kv1.second.children.size() * 64 * 4;
        }
        return bytes;
    }

    std::string structureName() const override { return "3-level"; }

  private:
    struct Level3
    {
        std::map<unsigned, Pte> ptes;
    };
    struct Level2
    {
        std::map<unsigned, Pte> terminals; ///< 256KB superpage PTEs
        std::map<unsigned, Level3> children;
    };

    static std::tuple<unsigned, unsigned, unsigned>
    split(Vpn vpn)
    {
        unsigned i3 = vpn & ((1 << l3Bits) - 1);
        unsigned i2 = (vpn >> l3Bits) & ((1 << l2Bits) - 1);
        unsigned i1 = vpn >> (l3Bits + l2Bits);
        return {i1, i2, i3};
    }

    /** The PTE that maps `vpn` (null if none), and whether it is a
     *  level-2 terminal. */
    std::pair<Pte *, bool>
    entry(Vpn vpn)
    {
        auto [i1, i2, i3] = split(vpn);
        auto it1 = level1.find(i1);
        if (it1 == level1.end())
            return {nullptr, false};
        Level2 &l2 = it1->second;
        if (auto itT = l2.terminals.find(i2); itT != l2.terminals.end())
            return {&itT->second, true};
        auto it2 = l2.children.find(i2);
        if (it2 == l2.children.end())
            return {nullptr, false};
        auto it3 = it2->second.ptes.find(i3);
        if (it3 == it2->second.ptes.end())
            return {nullptr, false};
        return {&it3->second, false};
    }

    std::map<unsigned, Level2> level1;
    std::uint64_t mapped = 0;
};

/**
 * Hashed table: what a MIPS OS is free to build for itself (§3.2:
 * "the operating system is free to choose whatever page table
 * structure it likes"). Chained buckets; walk cost counts probes.
 */
class HashedPageTable : public PageTable
{
  public:
    explicit HashedPageTable(std::uint64_t bucket_count)
        : buckets(bucket_count)
    {
        if (bucket_count == 0)
            fatal("hashed page table needs at least one bucket");
    }

    void
    map(Vpn vpn, const Pte &pte) override
    {
        auto &chain = buckets[hash(vpn)];
        for (auto &node : chain) {
            if (node.first == vpn) {
                node.second = pte;
                return;
            }
        }
        chain.emplace_back(vpn, pte);
        ++mapped;
    }

    void
    unmap(Vpn vpn) override
    {
        auto &chain = buckets[hash(vpn)];
        for (auto it = chain.begin(); it != chain.end(); ++it) {
            if (it->first == vpn) {
                chain.erase(it);
                --mapped;
                return;
            }
        }
    }

    WalkResult
    walk(Vpn vpn) const override
    {
        WalkResult r;
        r.levels = 1;
        const auto &chain = buckets[hash(vpn)];
        for (const auto &node : chain) {
            ++r.memoryRefs;
            if (node.first == vpn) {
                r.pte = node.second;
                return r;
            }
        }
        r.memoryRefs = std::max<std::uint32_t>(r.memoryRefs, 1);
        return r;
    }

    bool
    protect(Vpn vpn, PageProt prot) override
    {
        for (auto &node : buckets[hash(vpn)]) {
            if (node.first == vpn) {
                node.second.prot = prot;
                return true;
            }
        }
        return false;
    }

    std::uint64_t mappedPages() const override { return mapped; }

    std::uint64_t
    tableOverheadBytes() const override
    {
        // 8 bytes per hash slot + 16 per chained PTE node.
        return buckets.size() * 8 + mapped * 16;
    }

    std::string structureName() const override { return "hashed"; }

  private:
    std::size_t
    hash(Vpn vpn) const
    {
        return (vpn * 0x9e3779b97f4a7c15ULL >> 33) % buckets.size();
    }

    std::vector<std::vector<std::pair<Vpn, Pte>>> buckets;
    std::uint64_t mapped = 0;
};

} // namespace

std::unique_ptr<PageTable>
makeLinearPageTable(Vpn max_vpn)
{
    return std::make_unique<LinearPageTable>(max_vpn);
}

std::unique_ptr<PageTable>
makeMultiLevelPageTable()
{
    return std::make_unique<MultiLevelPageTable>();
}

std::unique_ptr<PageTable>
makeHashedPageTable(std::uint64_t buckets)
{
    return std::make_unique<HashedPageTable>(buckets);
}

std::unique_ptr<PageTable>
makePageTableFor(const MachineDesc &machine)
{
    switch (machine.id) {
      case MachineId::CVAX:
        return makeLinearPageTable((1ULL << 20) - 1); // 4GB / 4KB
      case MachineId::SPARC:
        return makeMultiLevelPageTable();
      case MachineId::R2000:
      case MachineId::R3000:
      case MachineId::I860:
        return makeHashedPageTable(1024);
      case MachineId::RS6000:
        return makeHashedPageTable(4096); // inverted-table flavour
      case MachineId::M88000:
        return makeMultiLevelPageTable(); // 88200 segment/page tables
      case MachineId::SUN3:
        // Sun-3 segment/page maps: two fixed levels, modelled as the
        // multi-level structure.
        return makeMultiLevelPageTable();
    }
    panic("unhandled machine");
}

} // namespace aosd
