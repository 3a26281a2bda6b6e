/**
 * @file
 * Functional + timing TLB model.
 *
 * Section 3.2 of the paper turns on TLB structure: tagged vs untagged
 * entries (purge-on-switch), software vs hardware refill (MIPS's fast
 * user vector vs slow kernel path), lockable entries (SPARC/Cypress),
 * and the pressure a kernelized OS puts on a fixed-size TLB. This model
 * supports all of those and is used by the LRPC simulator (Table 4) and
 * the Mach workload engine (Table 7).
 */

#ifndef AOSD_MEM_TLB_HH
#define AOSD_MEM_TLB_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "arch/machine_desc.hh"
#include "sim/counters/counters.hh"
#include "sim/ticks.hh"

namespace aosd
{

/** Virtual page number. */
using Vpn = std::uint64_t;
/** Physical frame number. */
using Pfn = std::uint64_t;
/** Address space identifier (TLB tag). */
using Asid = std::uint32_t;

/** Page protection bits. */
struct PageProt
{
    bool readable = true;
    bool writable = false;
    bool userAccessible = true;

    bool
    operator==(const PageProt &) const = default;
};

/** Result of a TLB lookup. */
struct TlbLookup
{
    bool hit = false;
    Pfn pfn = 0;
    PageProt prot;
    /** Cycles the lookup cost (0 on a hit; refill cost on a miss —
     *  charged by the caller once the refill source is known). */
    Cycles missCycles = 0;
    /** Index cell the failed probe ended on: pass to refill() to skip
     *  its insert probe. Meaningful only on a miss, and only until
     *  the next TLB mutation. */
    std::uint32_t fillCell = ~0u;
};

/**
 * Set of translations with LRU replacement over unlocked entries.
 * When the machine has no process-ID tags every entry belongs to the
 * single implicit context and switchContext() purges.
 *
 * Every operation is O(1) in the entry count (the workload engine
 * performs millions of lookups per Table 7 cell): a hash index maps
 * (vpn, asid) to its slot, an intrusive recency list replaces the
 * lastUse scan, and a free-slot bitmap finds the lowest invalid slot.
 * Replacement decisions are identical to the reference linear scan:
 * the victim is the first invalid entry in slot order, else the least
 * recently used unlocked entry (lastUse values are unique, so LRU
 * order is total).
 */
class Tlb
{
  public:
    explicit Tlb(const TlbDesc &d);

    /** Probe for (vpn, asid); updates recency on hit.
     *  @param kernel_space  the reference is to mapped kernel space
     *  (selects the software-refill cost on sw-managed TLBs). */
    TlbLookup lookup(Vpn vpn, Asid asid, bool kernel_space = false);

    /** Insert or replace a translation. */
    void insert(Vpn vpn, Asid asid, Pfn pfn, PageProt prot,
                bool locked = false);

    /** insert() for a translation the caller just observed missing
     *  (the refill after a failed lookup): skips the present-already
     *  probe. Identical observable behaviour to insert() with
     *  locked=false for a non-present key; calling it for a key that
     *  IS present corrupts the index.
     *
     *  `fill_cell`, when not ~0u, must be the missing lookup's
     *  TlbLookup::fillCell with no TLB mutation in between: the empty
     *  index cell the failed probe ended on. The key is placed there
     *  directly — cell occupancy only grows until the victim's key is
     *  erased afterwards, so every existing key stays reachable —
     *  skipping the insert probe's hash and cluster walk. */
    void refill(Vpn vpn, Asid asid, Pfn pfn, PageProt prot,
                std::uint32_t fill_cell = ~0u);

    /** Invalidate a single translation if present. */
    void invalidate(Vpn vpn, Asid asid);

    /** Invalidate everything (untagged context switch, TBIA). */
    void invalidateAll();

    /** Invalidate all entries of one address space. */
    void invalidateAsid(Asid asid);

    /** Model a context switch: purges if untagged. Returns the purge
     *  cost in cycles (0 for tagged TLBs). */
    Cycles switchContext();

    /** Number of currently valid entries. */
    std::size_t validEntries() const;

    /** Number of valid entries tagged with `asid`. */
    std::size_t entriesForAsid(Asid asid) const;

    const TlbDesc &config() const { return desc; }

  private:
    struct Entry
    {
        bool valid = false;
        bool locked = false;
        Vpn vpn = 0;
        Asid asid = 0;
        Pfn pfn = 0;
        PageProt prot;
        std::uint64_t lastUse = 0;
    };

    static constexpr std::uint32_t npos = ~0u;

    /** Hash-index key. Untagged TLBs store asid 0 and match any
     *  caller asid, so their key is the vpn alone. */
    struct SlotKey
    {
        Vpn vpn;
        Asid asid;
        bool operator==(const SlotKey &) const = default;
    };

    static std::uint32_t
    hashKey(SlotKey k)
    {
        std::uint64_t h = k.vpn * 0x9E3779B97F4A7C15ull + k.asid;
        h ^= h >> 29;
        h *= 0xBF58476D1CE4E5B9ull;
        h ^= h >> 32;
        return static_cast<std::uint32_t>(h);
    }

    SlotKey
    keyFor(Vpn vpn, Asid asid) const
    {
        return {vpn, desc.processIdTags ? asid : 0};
    }

    /** One cell of the open-addressed (linear-probe) index. Load
     *  factor stays at or below 25% — the table has at least four
     *  cells per TLB entry and at most one live key per valid entry —
     *  so probes are short and no rehash is ever needed. */
    struct IndexCell
    {
        Vpn vpn = 0;
        Asid asid = 0;
        std::uint32_t slot = npos; ///< npos marks an empty cell
    };

    std::uint32_t probeFind(SlotKey k) const;
    void probeInsert(SlotKey k, std::uint32_t slot);
    void probeErase(SlotKey k);

    /** Out-of-line miss bookkeeping (counters, tracer, cost
     *  selection); the inline lookup() keeps only the hit path hot.
     *  `empty_cell` is the index cell the failed probe ended on,
     *  passed through as TlbLookup::fillCell. */
    TlbLookup lookupMiss(std::uint32_t empty_cell, bool kernel_space);

    std::uint32_t findSlot(Vpn vpn, Asid asid);
    std::uint32_t victimSlot();

    // Intrusive recency list over valid slots, most recent at head.
    void lruPushHead(std::uint32_t slot);
    void lruUnlink(std::uint32_t slot);
    void lruTouch(std::uint32_t slot);

    void markFree(std::uint32_t slot);
    void markUsed(std::uint32_t slot);
    std::uint32_t lowestFreeSlot() const;

    void dropEntry(std::uint32_t slot);

    TlbDesc desc;
    std::vector<Entry> entries;
    std::uint64_t useClock = 0;
    std::vector<IndexCell> table;
    std::uint32_t tableMask = 0;
    std::vector<std::uint32_t> lruPrev;
    std::vector<std::uint32_t> lruNext;
    std::uint32_t lruHead = npos;
    std::uint32_t lruTail = npos;
    /** Bitmap of invalid (free) slots; lowest set bit = the reference
     *  scan's "first invalid entry in slot order". */
    std::vector<std::uint64_t> freeWords;
    std::uint32_t freeCount = 0;
};

// The lookup hit path is the single hottest loop in the workload
// engine (tens of millions of calls per Table 7 cell), so it and the
// helpers it touches live in the header where callers can inline
// them; everything rarer (miss bookkeeping, insert, invalidation)
// stays out of line in tlb.cc.

inline std::uint32_t
Tlb::probeFind(SlotKey k) const
{
    std::uint32_t i = hashKey(k) & tableMask;
    while (table[i].slot != npos) {
        if (table[i].vpn == k.vpn && table[i].asid == k.asid)
            return i;
        i = (i + 1) & tableMask;
    }
    return npos;
}

inline void
Tlb::lruPushHead(std::uint32_t slot)
{
    lruPrev[slot] = npos;
    lruNext[slot] = lruHead;
    if (lruHead != npos)
        lruPrev[lruHead] = slot;
    lruHead = slot;
    if (lruTail == npos)
        lruTail = slot;
}

inline void
Tlb::lruUnlink(std::uint32_t slot)
{
    std::uint32_t p = lruPrev[slot];
    std::uint32_t n = lruNext[slot];
    if (p != npos)
        lruNext[p] = n;
    else
        lruHead = n;
    if (n != npos)
        lruPrev[n] = p;
    else
        lruTail = p;
    lruPrev[slot] = lruNext[slot] = npos;
}

inline void
Tlb::lruTouch(std::uint32_t slot)
{
    if (lruHead != slot) {
        lruUnlink(slot);
        lruPushHead(slot);
    }
}

inline TlbLookup
Tlb::lookup(Vpn vpn, Asid asid, bool kernel_space)
{
    SlotKey k = keyFor(vpn, asid);
    std::uint32_t i = hashKey(k) & tableMask;
    while (table[i].slot != npos) {
        if (table[i].vpn == k.vpn && table[i].asid == k.asid)
            [[likely]] {
            std::uint32_t slot = table[i].slot;
            Entry &e = entries[slot];
            e.lastUse = ++useClock;
            lruTouch(slot);
            countEvent(HwCounter::TlbHits);
            return {true, e.pfn, e.prot, 0};
        }
        i = (i + 1) & tableMask;
    }
    // i is the empty cell the probe ended on: a subsequent refill()
    // may place the key there (TlbLookup::fillCell).
    return lookupMiss(i, kernel_space);
}

} // namespace aosd

#endif // AOSD_MEM_TLB_HH
