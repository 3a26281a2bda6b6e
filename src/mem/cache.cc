#include "mem/cache.hh"

#include "mem/page_table.hh"
#include "mem/write_buffer.hh"
#include "sim/counters/counters.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace aosd
{

Cache::Cache(const CacheDesc &d) : desc(d)
{
    if (d.lineBytes == 0 || d.sizeBytes % d.lineBytes != 0)
        fatal("bad cache geometry");
    lines.resize(d.lineCount());
}

std::size_t
Cache::index(Addr addr) const
{
    return (addr / desc.lineBytes) % lines.size();
}

Addr
Cache::tagOf(Addr addr) const
{
    return addr / desc.lineBytes / lines.size();
}

Cycles
Cache::access(Addr addr, Asid asid, bool write)
{
    Line &line = lines[index(addr)];
    bool context_match =
        desc.indexing == CacheIndexing::Physical || line.asid == asid;
    if (line.valid && line.tag == tagOf(addr) && context_match) {
        countEvent(HwCounter::CacheHits);
        if (write) {
            line.dirty = (desc.policy == WritePolicy::WriteBack);
            if (desc.policy == WritePolicy::WriteThrough)
                countEvent(HwCounter::CacheWriteThroughs);
        }
        return 1;
    }
    countEvent(HwCounter::CacheMisses);
    if (write && desc.policy == WritePolicy::WriteThrough)
        countEvent(HwCounter::CacheWriteThroughs);
    Cycles cost = 1 + desc.missPenaltyCycles;
    if (line.valid && line.dirty)
        cost += desc.missPenaltyCycles; // writeback of the victim
    if (tracerEnabled())
        Tracer::instance().instant(TraceEvent::CacheMiss, "cache_miss",
                                   cost);
    line.valid = true;
    line.dirty = write && desc.policy == WritePolicy::WriteBack;
    line.tag = tagOf(addr);
    line.asid = asid;
    return cost;
}

bool
Cache::present(Addr addr, Asid asid) const
{
    const Line &line = lines[index(addr)];
    bool context_match =
        desc.indexing == CacheIndexing::Physical || line.asid == asid;
    return line.valid && line.tag == tagOf(addr) && context_match;
}

Cycles
Cache::flushPage(Addr page_base, Asid asid)
{
    Addr base = page_base & ~(pageBytes - 1);
    Cycles cost = 0;
    std::uint64_t swept = 0;
    for (Addr a = base; a < base + pageBytes; a += desc.lineBytes) {
        Line &line = lines[index(a)];
        if (line.valid && line.tag == tagOf(a) &&
            (desc.indexing == CacheIndexing::Physical ||
             line.asid == asid)) {
            if (line.dirty)
                cost += desc.missPenaltyCycles; // write back
            line.valid = false;
        }
        cost += desc.flushLineCycles;
        ++swept;
    }
    countEvent(HwCounter::CacheFlushLines, swept);
    if (tracerEnabled())
        Tracer::instance().instant(TraceEvent::CacheFlush,
                                   "cache_flush_page", swept);
    return cost;
}

Cycles
Cache::flushAll()
{
    Cycles cost = 0;
    for (auto &line : lines) {
        if (line.valid && line.dirty)
            cost += desc.missPenaltyCycles;
        line.valid = false;
        cost += desc.flushLineCycles;
    }
    countEvent(HwCounter::CacheFlushLines, lines.size());
    if (tracerEnabled())
        Tracer::instance().instant(TraceEvent::CacheFlush,
                                   "cache_flush_all", lines.size());
    return cost;
}

Cycles
copyCycles(const MachineDesc &machine, std::uint64_t bytes)
{
    // Word-at-a-time copy loop: load, store, index update, branch per
    // 4 bytes; stores are paced by the write buffer.
    WriteBuffer wb(machine.writeBuffer);
    Cycles now = 0;
    std::uint64_t words = (bytes + 3) / 4;
    std::uint32_t line_words = machine.cache.lineBytes / 4;
    if (line_words == 0)
        line_words = 1;
    for (std::uint64_t w = 0; w < words; ++w) {
        // Source misses once per line (streaming data is not resident).
        now += 1;
        if (w % line_words == 0)
            now += machine.cache.missPenaltyCycles;
        // Store through the buffer; copies stream within a DRAM page.
        now += 1 + wb.store(now, true);
        // Loop overhead, partially hidden by delay slots.
        now += 2;
    }
    return now;
}

double
copyBandwidthMBps(const MachineDesc &machine)
{
    constexpr std::uint64_t bytes = 64 * 1024;
    Cycles c = copyCycles(machine, bytes);
    double seconds = static_cast<double>(
                         machine.clock.cyclesToTicks(c)) /
                     static_cast<double>(ticksPerSecond);
    return static_cast<double>(bytes) / (1024.0 * 1024.0) / seconds;
}

} // namespace aosd
