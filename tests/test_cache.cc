/**
 * @file
 * Unit tests for the functional cache model and the data-copy cost
 * model (§2.4, §3.2).
 */

#include <gtest/gtest.h>

#include "arch/machines.hh"
#include "counting_scope.hh"
#include "mem/cache.hh"
#include "mem/page_table.hh"

namespace aosd
{
namespace
{

CacheDesc
smallVirtual()
{
    CacheDesc d;
    d.indexing = CacheIndexing::Virtual;
    d.policy = WritePolicy::WriteThrough;
    d.sizeBytes = 1024;
    d.lineBytes = 16;
    d.missPenaltyCycles = 10;
    d.flushLineCycles = 3;
    return d;
}

TEST(Cache, MissThenHit)
{
    Cache c(smallVirtual());
    Cycles miss = c.access(0x100, 1, false);
    EXPECT_GT(miss, 1u);
    EXPECT_EQ(c.access(0x100, 1, false), 1u);
    EXPECT_TRUE(c.present(0x100, 1));
}

TEST(Cache, VirtualCacheContextMismatchMisses)
{
    Cache c(smallVirtual());
    c.access(0x100, 1, false);
    EXPECT_FALSE(c.present(0x100, 2));
    EXPECT_GT(c.access(0x100, 2, false), 1u); // other context misses
}

TEST(Cache, PhysicalCacheIgnoresContext)
{
    CacheDesc d = smallVirtual();
    d.indexing = CacheIndexing::Physical;
    Cache c(d);
    c.access(0x100, 1, false);
    EXPECT_TRUE(c.present(0x100, 2));
}

TEST(Cache, ConflictingLinesEvict)
{
    Cache c(smallVirtual()); // 64 lines
    c.access(0x0, 1, false);
    c.access(0x0 + 1024, 1, false); // same index, different tag
    EXPECT_FALSE(c.present(0x0, 1));
}

TEST(Cache, WriteBackDirtyVictimCostsExtra)
{
    CacheDesc d = smallVirtual();
    d.policy = WritePolicy::WriteBack;
    Cache c(d);
    c.access(0x0, 1, true); // dirty
    Cycles evict = c.access(0x0 + 1024, 1, false);
    Cache c2(d);
    c2.access(0x0, 1, false); // clean
    Cycles evict_clean = c2.access(0x0 + 1024, 1, false);
    EXPECT_GT(evict, evict_clean);
}

TEST(Cache, FlushPageRemovesPageLines)
{
    Cache c(smallVirtual());
    c.access(0x10, 1, false);
    Cycles cost = c.flushPage(0x0, 1);
    EXPECT_GT(cost, 0u);
    EXPECT_FALSE(c.present(0x10, 1));
}

TEST(Cache, FlushPageSweepsWholePageFootprint)
{
    // The sweep pays per-line cost for every line of the page — the
    // i860 effect (s3.2).
    Cache c(smallVirtual());
    Cycles cost = c.flushPage(0, 1);
    Cycles lines_per_page = pageBytes / 16;
    EXPECT_GE(cost, lines_per_page * 3);
}

TEST(Cache, FlushAllInvalidatesEveryLine)
{
    // Which machines flush on a switch is SimKernel's contract
    // (SimKernel.FlushChargesMatchReferenceCache).
    CountingScope counting;
    Cache v(smallVirtual());
    v.access(0x10, 1, false);
    EXPECT_TRUE(v.present(0x10, 1));
    EXPECT_EQ(v.flushAll(), v.lineCount() * 3);
    EXPECT_FALSE(v.present(0x10, 1));
    EXPECT_EQ(counting.value(HwCounter::CacheFlushLines), v.lineCount());
}

TEST(Cache, StatsTrackHitsAndFlushes)
{
    CountingScope counting;
    Cache c(smallVirtual());
    c.access(1, 1, false);
    c.access(1, 1, false);
    c.flushAll();
    EXPECT_EQ(counting.value(HwCounter::CacheMisses), 1u);
    EXPECT_EQ(counting.value(HwCounter::CacheHits), 1u);
    EXPECT_EQ(counting.value(HwCounter::CacheFlushLines), c.lineCount());
}

TEST(CacheDeathTest, BadGeometryIsFatal)
{
    CacheDesc d = smallVirtual();
    d.lineBytes = 0;
    EXPECT_DEATH(Cache c(d), "geometry");
}

// ---- copy model (s2.4) ----------------------------------------------

TEST(CopyModel, CostScalesWithSize)
{
    const MachineDesc m = makeMachine(MachineId::R3000);
    Cycles c1 = copyCycles(m, 1024);
    Cycles c4 = copyCycles(m, 4096);
    EXPECT_GT(c4, 3 * c1);
    EXPECT_LT(c4, 5 * c1);
}

TEST(CopyModel, ZeroBytesIsFree)
{
    EXPECT_EQ(copyCycles(makeMachine(MachineId::R3000), 0), 0u);
}

TEST(CopyModel, RelativeCopyPerformanceDropsOnFasterProcessors)
{
    // [Ousterhout 90b] via s2.4: MB/s per unit of integer performance
    // falls almost monotonically from the CVAX to the fastest RISC.
    double cvax = copyBandwidthMBps(makeMachine(MachineId::CVAX)) /
                  makeMachine(MachineId::CVAX).appPerfVsCvax;
    double r3000 = copyBandwidthMBps(makeMachine(MachineId::R3000)) /
                   makeMachine(MachineId::R3000).appPerfVsCvax;
    EXPECT_LT(r3000, cvax);
}

TEST(CopyModel, AbsoluteBandwidthStillHigherOnFasterMachines)
{
    EXPECT_GT(copyBandwidthMBps(makeMachine(MachineId::R3000)),
              copyBandwidthMBps(makeMachine(MachineId::CVAX)));
}

TEST(CopyModel, WriteBufferQualityMatters)
{
    // Same ISA, same clock family: the DS5000-style memory system
    // copies faster per cycle than the DS3100-style one.
    MachineDesc slow = makeMachine(MachineId::R2000);
    MachineDesc fast = makeMachine(MachineId::R3000);
    // Compare cycles (clock-independent).
    EXPECT_LT(copyCycles(fast, 4096), copyCycles(slow, 4096));
}

} // namespace
} // namespace aosd
