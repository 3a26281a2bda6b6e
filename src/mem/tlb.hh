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
    /** Index bucket the missing key hashed to: pass to refill() for
     *  the same key to skip its hash. Meaningful only on a miss. */
    std::uint32_t fillCell = ~0u;
};

/**
 * Set of translations with LRU replacement over unlocked entries.
 * When the machine has no process-ID tags every entry belongs to the
 * single implicit context and switchContext() purges.
 *
 * Every operation is O(1) in the entry count (the workload engine
 * performs millions of lookups per Table 7 cell). A chained hash
 * index maps (vpn, tag) to its slot: `buckets` holds at least four
 * chain heads per entry and each valid entry links to the next entry
 * of its bucket, so erasing a key unlinks one link. An intrusive
 * recency list orders the valid entries, and a stack holds the
 * invalid slots. Replacement matches a linear scan over entries
 * stamped with their last use: the victim is an invalid entry, else
 * the least recently used unlocked entry. Which invalid slot a new
 * key takes is not observable (filling it evicts nothing), so the
 * stack need not hand out the scan's first invalid slot.
 */
class Tlb
{
  public:
    explicit Tlb(const TlbDesc &d);

    /** Probe for (vpn, asid); updates recency on hit.
     *  @param kernel_space  the reference is to mapped kernel space
     *  (selects the software-refill cost on sw-managed TLBs). */
    [[gnu::always_inline]] TlbLookup lookup(Vpn vpn, Asid asid,
                                            bool kernel_space = false);

    /** Insert or replace a translation. */
    void insert(Vpn vpn, Asid asid, Pfn pfn, PageProt prot,
                bool locked = false);

    /** insert() for a translation the caller just observed missing
     *  (the refill after a failed lookup): skips the present-already
     *  probe. Identical observable behaviour to insert() with
     *  locked=false for a non-present key; calling it for a key that
     *  IS present corrupts the index.
     *
     *  `fill_cell`, when not ~0u, must be the TlbLookup::fillCell of
     *  a failed lookup of the same key: the bucket the key hashes to,
     *  which saves recomputing the hash. */
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
    static constexpr std::uint32_t npos = ~0u;

    struct Entry
    {
        Vpn vpn = 0;
        Pfn pfn = 0;
        /** Index tag: the asid on tagged TLBs; 0 on untagged ones,
         *  whose entries match any caller asid. */
        Asid asid = 0;
        PageProt prot;
        bool valid = false;
        bool locked = false;
        std::uint32_t chain = npos; ///< next entry in the bucket
        std::uint32_t lruPrev = npos;
        std::uint32_t lruNext = npos;
    };

    Asid tagFor(Asid asid) const { return desc.processIdTags ? asid : 0; }

    /** Multiply-shift hash of (vpn, tag) onto the bucket array. */
    std::uint32_t
    bucketOf(Vpn vpn, Asid tag) const
    {
        return static_cast<std::uint32_t>(
            ((vpn ^ (std::uint64_t{tag} << 40)) * 0x9E3779B97F4A7C15ull) >>
            bucketShift);
    }

    /** Out-of-line miss bookkeeping (counters, tracer, cost
     *  selection); the inline lookup() keeps only the hit path hot. */
    TlbLookup lookupMiss(std::uint32_t bucket, bool kernel_space);

    std::uint32_t findSlot(Vpn vpn, Asid tag, std::uint32_t bucket) const;

    /** Take the victim's slot for a new key in `bucket`: evict what it
     *  held, link it into the bucket and make it most recent. */
    std::uint32_t claim(std::uint32_t bucket);
    void fill(std::uint32_t slot, Vpn vpn, Asid tag, Pfn pfn,
              PageProt prot, bool locked);
    void unchain(std::uint32_t slot);

    // Intrusive recency list over valid slots, most recent at head.
    void lruPushHead(std::uint32_t slot);
    void lruUnlink(std::uint32_t slot);
    void lruTouch(std::uint32_t slot);

    void dropEntry(std::uint32_t slot);

    TlbDesc desc;
    std::vector<Entry> entries;
    std::vector<std::uint32_t> buckets; ///< chain heads; npos = empty
    unsigned bucketShift = 0;
    std::uint32_t lruHead = npos;
    std::uint32_t lruTail = npos;
    std::vector<std::uint32_t> freeSlots; ///< the invalid slots
};

// The lookup hit path is the single hottest loop in the workload
// engine (tens of millions of calls per Table 7 cell), so it and the
// helpers it touches live in the header and are forced inline at
// every call site; everything rarer (miss bookkeeping, insert,
// invalidation) stays out of line in tlb.cc.

inline void
Tlb::lruPushHead(std::uint32_t slot)
{
    entries[slot].lruPrev = npos;
    entries[slot].lruNext = lruHead;
    if (lruHead != npos)
        entries[lruHead].lruPrev = slot;
    lruHead = slot;
    if (lruTail == npos)
        lruTail = slot;
}

inline void
Tlb::lruUnlink(std::uint32_t slot)
{
    const std::uint32_t p = entries[slot].lruPrev;
    const std::uint32_t n = entries[slot].lruNext;
    (p != npos ? entries[p].lruNext : lruHead) = n;
    (n != npos ? entries[n].lruPrev : lruTail) = p;
}

inline void
Tlb::lruTouch(std::uint32_t slot)
{
    if (lruHead != slot) {
        lruUnlink(slot);
        lruPushHead(slot);
    }
}

inline std::uint32_t
Tlb::findSlot(Vpn vpn, Asid tag, std::uint32_t bucket) const
{
    std::uint32_t s = buckets[bucket];
    while (s != npos && (entries[s].vpn != vpn || entries[s].asid != tag))
        s = entries[s].chain;
    return s;
}

inline TlbLookup
Tlb::lookup(Vpn vpn, Asid asid, bool kernel_space)
{
    const Asid tag = tagFor(asid);
    const std::uint32_t b = bucketOf(vpn, tag);
    const std::uint32_t s = findSlot(vpn, tag, b);
    if (s == npos)
        return lookupMiss(b, kernel_space);
    lruTouch(s);
    countEvent(HwCounter::TlbHits);
    return {true, entries[s].pfn, entries[s].prot, 0};
}

} // namespace aosd

#endif // AOSD_MEM_TLB_HH
