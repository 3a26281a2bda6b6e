#include "mem/tlb.hh"

#include <algorithm>
#include <bit>

#include "sim/counters/counters.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace aosd
{

Tlb::Tlb(const TlbDesc &d)
    : desc(d), entries(d.entries)
{
    if (d.entries == 0)
        fatal("TLB must have at least one entry");
    for (std::uint32_t s = 0; s < d.entries; ++s)
        freeSlots.push_back(s);
    const std::uint32_t n =
        std::bit_ceil(std::max<std::uint32_t>(16, 4 * d.entries));
    buckets.assign(n, npos);
    bucketShift = 64 - static_cast<unsigned>(std::countr_zero(n));
}

/** Unlink a valid entry from its bucket's chain. */
void
Tlb::unchain(std::uint32_t slot)
{
    const Entry &e = entries[slot];
    std::uint32_t *link = &buckets[bucketOf(e.vpn, e.asid)];
    while (*link != slot)
        link = &entries[*link].chain;
    *link = e.chain;
}

std::uint32_t
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

void
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
        Tracer::instance().instant(TraceEvent::TlbFill, "tlb_fill", vpn);
}

/** Drop a valid entry: de-index, unlink, free its slot. */
void
Tlb::dropEntry(std::uint32_t slot)
{
    unchain(slot);
    lruUnlink(slot);
    freeSlots.push_back(slot);
    entries[slot].valid = false;
    entries[slot].locked = false;
}

TlbLookup
Tlb::lookupMiss(std::uint32_t bucket, bool kernel_space)
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
    return {false, 0, {}, cost, bucket};
}

void
Tlb::insert(Vpn vpn, Asid asid, Pfn pfn, PageProt prot, bool locked)
{
    if (locked && desc.lockableEntries == 0)
        fatal("TLB does not support locked entries");
    const Asid tag = tagFor(asid);
    const std::uint32_t b = bucketOf(vpn, tag);
    std::uint32_t slot = findSlot(vpn, tag, b);
    if (slot == npos)
        slot = claim(b);
    else
        lruTouch(slot);
    fill(slot, vpn, tag, pfn, prot, locked);
}

void
Tlb::refill(Vpn vpn, Asid asid, Pfn pfn, PageProt prot,
            std::uint32_t fill_cell)
{
    const Asid tag = tagFor(asid);
    fill(claim(fill_cell != npos ? fill_cell : bucketOf(vpn, tag)), vpn,
         tag, pfn, prot, false);
}

void
Tlb::invalidate(Vpn vpn, Asid asid)
{
    const Asid tag = tagFor(asid);
    std::uint32_t slot = findSlot(vpn, tag, bucketOf(vpn, tag));
    if (slot != npos) {
        dropEntry(slot);
        countEvent(HwCounter::TlbPurges);
    }
}

void
Tlb::invalidateAll()
{
    std::uint64_t dropped = validEntries();
    freeSlots.clear();
    for (std::uint32_t s = 0; s < entries.size(); ++s) {
        entries[s].valid = false;
        entries[s].locked = false;
        freeSlots.push_back(s);
    }
    std::fill(buckets.begin(), buckets.end(), npos);
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
    return entries.size() - freeSlots.size();
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
