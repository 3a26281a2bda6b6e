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
#include "sim/logging.hh"
#include "sim/ticks.hh"
#include "sim/trace.hh"

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
};

/** The translation a Tlb::touch() refill installs. */
struct TlbFill
{
    Pfn pfn = 0;
    PageProt prot;
};

/**
 * Set of translations with LRU replacement over unlocked entries.
 * When the machine has no process-ID tags every entry belongs to the
 * single implicit context and switchContext() purges.
 *
 * lookup(), touch(), insert() and invalidate() are O(1) in the entry
 * count, bar a walk past the locked entries at the LRU end (the
 * workload engine performs up to 8M lookups per Table 7 cell);
 * invalidateAll(), invalidateAsid() and entriesForAsid() are
 * O(entries). A chained hash index maps (vpn, tag) to its slot:
 * `buckets` holds at least four chain heads per entry and each valid
 * entry links to the next entry of its bucket, so erasing a key
 * unlinks one link. An intrusive recency list orders the valid
 * entries, and a stack holds the invalid slots. Replacement matches a
 * linear scan over entries stamped with their last use: the victim is
 * an invalid entry, else the least recently used unlocked entry. Which
 * invalid slot a new key takes is not observable (filling it evicts
 * nothing), so the stack need not hand out the scan's first invalid
 * slot.
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

    /**
     * lookup() and, on a miss, the insert() of the missing key, with
     * one hash and one probe. A hit updates recency and returns true.
     * A miss is counted and traced as lookup() does, then calls
     * `refill_from(cost)` once with its refill cycles (for the caller
     * to charge) for the TlbFill to install, fills the victim's slot
     * unlocked and returns false. `refill_from` must not use this TLB.
     */
    template <class RefillFrom>
    [[gnu::always_inline]] bool touch(Vpn vpn, Asid asid,
                                      bool kernel_space,
                                      RefillFrom &&refill_from);

    /** Insert or replace a translation. Locking a key that is not
     *  locked already is fatal once `lockableEntries` are locked. */
    void insert(Vpn vpn, Asid asid, Pfn pfn, PageProt prot,
                bool locked = false);

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

    /** findSlot() plus a hit's recency update and count. */
    std::uint32_t
    probe(Vpn vpn, Asid tag, std::uint32_t bucket)
    {
        const std::uint32_t s = findSlot(vpn, tag, bucket);
        if (s != npos) {
            lruTouch(s);
            countEvent(HwCounter::TlbHits);
        }
        return s;
    }

    /** Price a miss by management style and space, count it and trace
     *  it; returns its refill cycles. */
    Cycles
    chargeMiss(bool kernel_space)
    {
        const Cycles cost =
            desc.management == TlbManagement::Hardware ? desc.hwMissCycles
            : kernel_space ? desc.swKernelMissCycles
                           : desc.swUserMissCycles;
        countEvent(HwCounter::TlbMisses);
        countEvent(HwCounter::TlbRefillCycles, cost);
        if (tracerEnabled())
            traceMiss(cost, kernel_space);
        return cost;
    }

    // The tracer calls, out of line so the hot paths stay small.
    [[gnu::cold]] static void traceMiss(Cycles cost, bool kernel_space);
    [[gnu::cold]] static void traceFill(Vpn vpn);

    std::uint32_t findSlot(Vpn vpn, Asid tag, std::uint32_t bucket) const;

    /** Take the victim's slot for a new key in `bucket`: evict what it
     *  held, link it into the bucket and make it most recent. */
    [[gnu::always_inline]] std::uint32_t claim(std::uint32_t bucket);
    /** Write a claimed slot's translation and trace the fill. */
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
    std::uint32_t lockedCount = 0;         ///< locked valid entries
};

// touch() is the single hottest loop in the workload engine (8.0M
// calls in the largest Table 7 cell, 18.4M per grid), so it and
// lookup() are forced inline at every call site and the helpers they
// use live in the header; everything rarer (insert, invalidation,
// tracing) stays out of line in tlb.cc.

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

/** Unlink a valid entry from its bucket's chain. */
inline void
Tlb::unchain(std::uint32_t slot)
{
    const Entry &e = entries[slot];
    std::uint32_t *link = &buckets[bucketOf(e.vpn, e.asid)];
    while (*link != slot)
        link = &entries[*link].chain;
    *link = e.chain;
}

inline std::uint32_t
Tlb::claim(std::uint32_t bucket)
{
    // Prefer an invalid entry; otherwise evict the LRU unlocked one.
    std::uint32_t slot = npos;
    if (!freeSlots.empty()) {
        slot = freeSlots.back();
        freeSlots.pop_back();
    } else {
        for (slot = lruTail; slot != npos && entries[slot].locked;)
            slot = entries[slot].lruPrev;
        // Unreachable: the constructor keeps lockableEntries below
        // the entry count, so an unlocked entry always remains.
        if (slot == npos)
            panic("all TLB entries locked");
        unchain(slot);
        lruUnlink(slot);
    }
    entries[slot].chain = buckets[bucket];
    buckets[bucket] = slot;
    lruPushHead(slot);
    return slot;
}

inline void
Tlb::fill(std::uint32_t slot, Vpn vpn, Asid tag, Pfn pfn, PageProt prot,
          bool locked)
{
    Entry &e = entries[slot];
    e.vpn = vpn;
    e.pfn = pfn;
    e.asid = tag;
    e.prot = prot;
    e.valid = true;
    e.locked = locked;
    if (tracerEnabled())
        traceFill(vpn);
}

inline TlbLookup
Tlb::lookup(Vpn vpn, Asid asid, bool kernel_space)
{
    const Asid tag = tagFor(asid);
    const std::uint32_t s = probe(vpn, tag, bucketOf(vpn, tag));
    if (s == npos)
        return {false, 0, {}, chargeMiss(kernel_space)};
    return {true, entries[s].pfn, entries[s].prot, 0};
}

template <class RefillFrom>
inline bool
Tlb::touch(Vpn vpn, Asid asid, bool kernel_space, RefillFrom &&refill_from)
{
    const Asid tag = tagFor(asid);
    const std::uint32_t b = bucketOf(vpn, tag);
    if (probe(vpn, tag, b) != npos)
        return true;
    const TlbFill f = refill_from(chargeMiss(kernel_space));
    fill(claim(b), vpn, tag, f.pfn, f.prot, false);
    return false;
}

} // namespace aosd

#endif // AOSD_MEM_TLB_HH
