/**
 * @file
 * Physical memory: frame allocation and accounting.
 *
 * A simple free-list frame allocator with allocation statistics. The
 * VM manager draws COW copies and zero-fill frames from here, so tests
 * can assert that sharing actually saves memory — the other half of
 * the §3 copy-on-write argument ("Copy-on-write saves memory and
 * avoids copying").
 */

#ifndef AOSD_MEM_PHYS_MEM_HH
#define AOSD_MEM_PHYS_MEM_HH

#include <cstdint>
#include <vector>

#include "mem/tlb.hh"

namespace aosd
{

/** Frame allocator over a fixed-size physical memory. */
class PhysMem
{
  public:
    /** @param frames total page frames (e.g. 6144 for the paper's
     *  24MB DECstation at 4KB pages). */
    explicit PhysMem(std::uint64_t frames);

    /** Allocate one frame; fatal when memory is exhausted. */
    Pfn alloc();

    /** Release a frame back to the free list. */
    void free(Pfn pfn);

    std::uint64_t totalFrames() const { return total; }
    std::uint64_t freeFrames() const;
    std::uint64_t allocatedFrames() const;

    /** High-water mark of simultaneous allocation. */
    std::uint64_t peakAllocated() const { return peak; }

  private:
    std::uint64_t total;
    std::vector<bool> allocated;
    std::vector<Pfn> freeList;
    std::uint64_t live = 0;
    std::uint64_t peak = 0;
};

} // namespace aosd

#endif // AOSD_MEM_PHYS_MEM_HH
