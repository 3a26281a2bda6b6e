#include "mem/tlb.hh"

#include "sim/counters/counters.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace aosd
{

Tlb::Tlb(const TlbDesc &d)
    : desc(d), entries(d.entries), lruPrev(d.entries, npos),
      lruNext(d.entries, npos), freeWords((d.entries + 63) / 64, 0),
      freeCount(d.entries)
{
    if (d.entries == 0)
        fatal("TLB must have at least one entry");
    for (std::uint32_t i = 0; i < d.entries; ++i)
        freeWords[i / 64] |= 1ull << (i % 64);
    std::uint32_t cap = 16;
    while (cap < 4 * d.entries)
        cap *= 2;
    table.assign(cap, IndexCell{});
    tableMask = cap - 1;
}

void
Tlb::probeInsert(SlotKey k, std::uint32_t slot)
{
    std::uint32_t i = hashKey(k) & tableMask;
    while (table[i].slot != npos)
        i = (i + 1) & tableMask;
    table[i] = {k.vpn, k.asid, slot};
}

void
Tlb::probeErase(SlotKey k)
{
    std::uint32_t i = probeFind(k);
    // Backward-shift deletion: walk the cluster after the hole and
    // pull down any cell whose home position precedes the hole on its
    // probe path, so later finds never cross a false empty.
    std::uint32_t j = i;
    for (std::uint32_t s = (j + 1) & tableMask;
         table[s].slot != npos; s = (s + 1) & tableMask) {
        std::uint32_t home =
            hashKey({table[s].vpn, table[s].asid}) & tableMask;
        if (((j - home) & tableMask) < ((s - home) & tableMask)) {
            table[j] = table[s];
            j = s;
        }
    }
    table[j].slot = npos;
}

void
Tlb::markFree(std::uint32_t slot)
{
    std::uint64_t bit = 1ull << (slot % 64);
    if (!(freeWords[slot / 64] & bit)) {
        freeWords[slot / 64] |= bit;
        ++freeCount;
    }
}

void
Tlb::markUsed(std::uint32_t slot)
{
    std::uint64_t bit = 1ull << (slot % 64);
    if (freeWords[slot / 64] & bit) {
        freeWords[slot / 64] &= ~bit;
        --freeCount;
    }
}

std::uint32_t
Tlb::lowestFreeSlot() const
{
    for (std::size_t w = 0; w < freeWords.size(); ++w)
        if (freeWords[w])
            return static_cast<std::uint32_t>(
                w * 64 +
                static_cast<std::uint32_t>(
                    __builtin_ctzll(freeWords[w])));
    return npos;
}

std::uint32_t
Tlb::findSlot(Vpn vpn, Asid asid)
{
    std::uint32_t i = probeFind(keyFor(vpn, asid));
    return i == npos ? npos : table[i].slot;
}

std::uint32_t
Tlb::victimSlot()
{
    // Prefer an invalid entry (the reference scan returns the first
    // one in slot order); otherwise LRU among unlocked entries.
    if (freeCount) {
        std::uint32_t slot = lowestFreeSlot();
        if (slot != npos)
            return slot;
    }
    for (std::uint32_t s = lruTail; s != npos; s = lruPrev[s])
        if (!entries[s].locked)
            return s;
    panic("all TLB entries locked");
}

/** Drop a valid entry: de-index, unlink, free its slot. */
void
Tlb::dropEntry(std::uint32_t slot)
{
    Entry &e = entries[slot];
    probeErase(SlotKey{e.vpn, e.asid});
    lruUnlink(slot);
    markFree(slot);
    e.valid = false;
    e.locked = false;
}

TlbLookup
Tlb::lookupMiss(std::uint32_t empty_cell, bool kernel_space)
{
    Cycles cost;
    if (desc.management == TlbManagement::Hardware) {
        cost = desc.hwMissCycles;
    } else {
        cost = kernel_space ? desc.swKernelMissCycles
                            : desc.swUserMissCycles;
    }
    countEvent(HwCounter::TlbMisses);
    countEvent(HwCounter::TlbRefillCycles, cost);
    if (tracerEnabled()) {
        Tracer::instance().instant(TraceEvent::TlbMiss,
                                   kernel_space ? "tlb_miss_kernel"
                                                : "tlb_miss_user",
                                   cost);
        Tracer::instance().counter(
            "tlb_misses",
            HwCounters::instance().value(HwCounter::TlbMisses));
    }
    return {false, 0, {}, cost, empty_cell};
}

void
Tlb::insert(Vpn vpn, Asid asid, Pfn pfn, PageProt prot, bool locked)
{
    if (locked && desc.lockableEntries == 0)
        fatal("TLB does not support locked entries");
    std::uint32_t slot = findSlot(vpn, asid);
    if (slot == npos) {
        slot = victimSlot();
        if (entries[slot].valid)
            dropEntry(slot);
        markUsed(slot);
        probeInsert(keyFor(vpn, asid), slot);
        lruPushHead(slot);
    } else {
        lruTouch(slot);
    }
    Entry &e = entries[slot];
    e.valid = true;
    e.locked = locked;
    e.vpn = vpn;
    e.asid = desc.processIdTags ? asid : 0;
    e.pfn = pfn;
    e.prot = prot;
    e.lastUse = ++useClock;
    if (tracerEnabled())
        Tracer::instance().instant(TraceEvent::TlbFill, "tlb_fill", vpn);
}

void
Tlb::refill(Vpn vpn, Asid asid, Pfn pfn, PageProt prot,
            std::uint32_t fill_cell)
{
    std::uint32_t slot = victimSlot();
    SlotKey k = keyFor(vpn, asid);
    if (fill_cell != npos) {
        // The caller's failed probe already walked the key's cluster;
        // place the key at the empty cell it ended on. Writing before
        // erasing only grows occupancy, so no existing key's probe
        // path crosses a false empty, and the backward-shift erase of
        // the victim's key below re-packs the cluster correctly (it
        // may relocate the cell just written — that is fine).
        table[fill_cell] = {k.vpn, k.asid, slot};
        if (entries[slot].valid) {
            Entry &v = entries[slot];
            probeErase(SlotKey{v.vpn, v.asid});
            lruUnlink(slot);
            // The slot stays in use: no free-bitmap churn.
        } else {
            markUsed(slot);
        }
    } else {
        if (entries[slot].valid)
            dropEntry(slot);
        markUsed(slot);
        probeInsert(k, slot);
    }
    lruPushHead(slot);
    Entry &e = entries[slot];
    e.valid = true;
    e.locked = false;
    e.vpn = vpn;
    e.asid = desc.processIdTags ? asid : 0;
    e.pfn = pfn;
    e.prot = prot;
    e.lastUse = ++useClock;
    if (tracerEnabled())
        Tracer::instance().instant(TraceEvent::TlbFill, "tlb_fill", vpn);
}

void
Tlb::invalidate(Vpn vpn, Asid asid)
{
    std::uint32_t slot = findSlot(vpn, asid);
    if (slot != npos) {
        dropEntry(slot);
        countEvent(HwCounter::TlbPurges);
    }
}

void
Tlb::invalidateAll()
{
    std::uint64_t dropped = validEntries();
    for (std::uint32_t s = 0; s < entries.size(); ++s) {
        entries[s].valid = false;
        entries[s].locked = false;
        lruPrev[s] = lruNext[s] = npos;
        markFree(s);
    }
    for (IndexCell &c : table)
        c.slot = npos;
    lruHead = lruTail = npos;
    countEvent(HwCounter::TlbPurges);
    if (tracerEnabled())
        Tracer::instance().instant(TraceEvent::TlbPurge, "tlb_purge_all",
                                   dropped);
}

void
Tlb::invalidateAsid(Asid asid)
{
    for (std::uint32_t s = 0; s < entries.size(); ++s)
        if (entries[s].valid && entries[s].asid == asid)
            dropEntry(s);
    countEvent(HwCounter::TlbPurges);
}

Cycles
Tlb::switchContext()
{
    if (desc.processIdTags)
        return 0;
    invalidateAll();
    return desc.purgeAllCycles;
}

std::size_t
Tlb::validEntries() const
{
    return entries.size() - freeCount;
}

std::size_t
Tlb::entriesForAsid(Asid asid) const
{
    std::size_t n = 0;
    for (const auto &e : entries)
        n += e.valid && e.asid == asid;
    return n;
}

} // namespace aosd
