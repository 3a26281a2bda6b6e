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
    // One entry must stay replaceable, or the fill after the last
    // lock has no victim.
    if (d.lockableEntries >= d.entries)
        fatal("TLB has %u lockable entries of %u: at most %u may lock",
              d.lockableEntries, d.entries, d.entries - 1);
    for (std::uint32_t s = 0; s < d.entries; ++s)
        freeSlots.push_back(s);
    const std::uint32_t n =
        std::bit_ceil(std::max<std::uint32_t>(16, 4 * d.entries));
    buckets.assign(n, npos);
    bucketShift = 64 - static_cast<unsigned>(std::countr_zero(n));
}

/** Drop a valid entry: de-index, unlink, free its slot. */
void
Tlb::dropEntry(std::uint32_t slot)
{
    unchain(slot);
    lruUnlink(slot);
    freeSlots.push_back(slot);
    lockedCount -= entries[slot].locked;
    entries[slot].valid = false;
    entries[slot].locked = false;
}

void
Tlb::traceMiss(Cycles cost, bool kernel_space)
{
    Tracer::instance().instant(TraceEvent::TlbMiss,
                               kernel_space ? "tlb_miss_kernel"
                                            : "tlb_miss_user",
                               cost);
    Tracer::instance().counter(
        "tlb_misses", HwCounters::instance().value(HwCounter::TlbMisses));
}

void
Tlb::traceFill(Vpn vpn)
{
    Tracer::instance().instant(TraceEvent::TlbFill, "tlb_fill", vpn);
}

void
Tlb::insert(Vpn vpn, Asid asid, Pfn pfn, PageProt prot, bool locked)
{
    const Asid tag = tagFor(asid);
    const std::uint32_t b = bucketOf(vpn, tag);
    std::uint32_t slot = findSlot(vpn, tag, b);
    const bool was_locked = slot != npos && entries[slot].locked;
    if (locked && !was_locked && lockedCount == desc.lockableEntries)
        fatal("TLB lock limit reached: %u lockable entries",
              desc.lockableEntries);
    if (slot == npos)
        slot = claim(b);
    else
        lruTouch(slot);
    lockedCount += locked;
    lockedCount -= was_locked;
    fill(slot, vpn, tag, pfn, prot, locked);
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
    lockedCount = 0;
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
