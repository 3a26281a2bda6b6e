/**
 * @file
 * Functional first-level cache model.
 *
 * The reference model of the §3.2 effects, used by the
 * `ablation_vcache` bench and the tests: virtually-addressed caches
 * must be swept when a page's protection changes (at most one TLB
 * entry vs. a whole cache search), and — when untagged — flushed on
 * every context switch (cf. the i860's context switch instruction
 * count). Physically-addressed caches need neither. SimKernel charges
 * the same sweeps as per-machine constants (see SimKernel).
 */

#ifndef AOSD_MEM_CACHE_HH
#define AOSD_MEM_CACHE_HH

#include <cstdint>
#include <vector>

#include "arch/machine_desc.hh"
#include "mem/tlb.hh"
#include "sim/ticks.hh"

namespace aosd
{

/** Byte address in some (virtual or physical) space. */
using Addr = std::uint64_t;

/** Direct-mapped cache with per-line valid/dirty/context state. */
class Cache
{
  public:
    explicit Cache(const CacheDesc &d);

    /** Access one address. Returns cycles charged (hit: 1). */
    Cycles access(Addr addr, Asid asid, bool write);

    /** Is the line holding addr (for asid) present? */
    bool present(Addr addr, Asid asid) const;

    /**
     * Invalidate every line falling on the page containing addr, as a
     * PTE change must on a virtually-addressed cache. Returns the cost:
     * the sweep visits every line of the page's footprint.
     */
    Cycles flushPage(Addr page_base, Asid asid);

    /**
     * Flush the whole cache (untagged virtual cache on context switch).
     * Returns the cost of visiting every line.
     */
    Cycles flushAll();

    std::uint64_t lineCount() const { return lines.size(); }
    const CacheDesc &config() const { return desc; }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0;
        Asid asid = 0;
    };

    std::size_t index(Addr addr) const;
    Addr tagOf(Addr addr) const;

    CacheDesc desc;
    std::vector<Line> lines;
};

/**
 * Cost of copying `bytes` through the memory system of `machine`, in
 * cycles — the §2.4 data-copying analysis. Each word is a load plus a
 * store; the store side is limited by the write buffer drain rate, so
 * "the relative performance of memory copying drops almost
 * monotonically with faster processors" [Ousterhout 90b] emerges from
 * the fixed DRAM time shrinking more slowly than the cycle.
 */
Cycles copyCycles(const MachineDesc &machine, std::uint64_t bytes);

/** Copy throughput in MB/s for `machine` (derived from copyCycles). */
double copyBandwidthMBps(const MachineDesc &machine);

} // namespace aosd

#endif // AOSD_MEM_CACHE_HH
