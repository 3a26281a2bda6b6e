#include "mem/phys_mem.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace aosd
{

PhysMem::PhysMem(std::uint64_t frames) : total(frames)
{
    if (frames == 0)
        fatal("physical memory must have at least one frame");
    allocated.assign(frames, false);
    freeList.reserve(frames);
    // Hand frames out in ascending order for reproducibility.
    for (Pfn p = frames; p > 0; --p)
        freeList.push_back(p - 1);
}

Pfn
PhysMem::alloc()
{
    if (freeList.empty())
        fatal("out of physical memory (%llu frames)",
              static_cast<unsigned long long>(total));
    Pfn pfn = freeList.back();
    freeList.pop_back();
    allocated[pfn] = true;
    ++live;
    peak = std::max(peak, live);
    return pfn;
}

void
PhysMem::free(Pfn pfn)
{
    if (pfn >= total || !allocated[pfn])
        panic("free of unallocated frame %llu",
              static_cast<unsigned long long>(pfn));
    allocated[pfn] = false;
    freeList.push_back(pfn);
    --live;
}

std::uint64_t
PhysMem::freeFrames() const
{
    return freeList.size();
}

std::uint64_t
PhysMem::allocatedFrames() const
{
    return live;
}

} // namespace aosd
