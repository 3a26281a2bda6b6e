/**
 * @file
 * Parameterized tests over the three page-table structures (§3.2):
 * VAX linear, SPARC/Cypress 3-level, and MIPS-style hashed. One suite
 * asserts the common contract; structure-specific suites check the
 * properties the paper contrasts (sparse-space overhead, superpages,
 * walk depth).
 */

#include <functional>
#include <gtest/gtest.h>

#include "arch/machines.hh"
#include "mem/page_table.hh"

namespace aosd
{
namespace
{

using Factory = std::function<std::unique_ptr<PageTable>()>;

struct NamedFactory
{
    const char *name;
    Factory make;
};

// Without this gtest prints the raw bytes of the param (pointers), which
// makes the discovered test names differ from build to build.
void PrintTo(const NamedFactory &f, std::ostream *os)
{
    *os << f.name;
}

const NamedFactory factories[] = {
    {"linear", [] { return makeLinearPageTable((1ULL << 20) - 1); }},
    {"multilevel", [] { return makeMultiLevelPageTable(); }},
    {"hashed", [] { return makeHashedPageTable(256); }},
};

class PageTableContract
    : public ::testing::TestWithParam<NamedFactory>
{
  protected:
    std::unique_ptr<PageTable> table = GetParam().make();
};

TEST_P(PageTableContract, UnmappedWalkFails)
{
    WalkResult r = table->walk(0x123);
    EXPECT_FALSE(r.pte.has_value());
    EXPECT_GE(r.memoryRefs, 1u);
}

TEST_P(PageTableContract, MapThenWalk)
{
    Pte pte;
    pte.pfn = 0x77;
    pte.prot.writable = true;
    table->map(0x123, pte);
    WalkResult r = table->walk(0x123);
    ASSERT_TRUE(r.pte.has_value());
    EXPECT_EQ(r.pte->pfn, 0x77u);
    EXPECT_TRUE(r.pte->prot.writable);
    EXPECT_EQ(table->mappedPages(), 1u);
}

TEST_P(PageTableContract, RemapOverwrites)
{
    table->map(5, Pte{1, {}, false, false, false});
    table->map(5, Pte{2, {}, false, false, false});
    EXPECT_EQ(table->mappedPages(), 1u);
    EXPECT_EQ(table->walk(5).pte->pfn, 2u);
}

TEST_P(PageTableContract, UnmapRemoves)
{
    table->map(9, Pte{1, {}, false, false, false});
    table->unmap(9);
    EXPECT_FALSE(table->walk(9).pte.has_value());
    EXPECT_EQ(table->mappedPages(), 0u);
    table->unmap(9); // double unmap is a no-op
    EXPECT_EQ(table->mappedPages(), 0u);
}

TEST_P(PageTableContract, ProtectChangesBits)
{
    Pte pte;
    pte.pfn = 3;
    pte.prot.writable = true;
    table->map(7, pte);
    PageProt ro;
    ro.writable = false;
    EXPECT_TRUE(table->protect(7, ro));
    EXPECT_FALSE(table->walk(7).pte->prot.writable);
    EXPECT_FALSE(table->protect(0x999, ro)); // unmapped
}

TEST_P(PageTableContract, ManyMappingsAllRetrievable)
{
    for (Vpn v = 0; v < 500; ++v)
        table->map(v * 7, Pte{v, {}, false, false, false});
    EXPECT_EQ(table->mappedPages(), 500u);
    for (Vpn v = 0; v < 500; ++v) {
        WalkResult r = table->walk(v * 7);
        ASSERT_TRUE(r.pte.has_value()) << v;
        EXPECT_EQ(r.pte->pfn, v);
    }
}

TEST_P(PageTableContract, OverheadGrowsWithMappings)
{
    std::uint64_t before = table->tableOverheadBytes();
    for (Vpn v = 0; v < 1000; ++v)
        table->map(v, Pte{v, {}, false, false, false});
    EXPECT_GE(table->tableOverheadBytes(), before);
}

INSTANTIATE_TEST_SUITE_P(
    Structures, PageTableContract, ::testing::ValuesIn(factories),
    [](const ::testing::TestParamInfo<NamedFactory> &info) {
        return std::string(info.param.name);
    });

// ---- structure-specific behaviour -----------------------------------

TEST(LinearPageTable, SparseSpacesAreExpensive)
{
    // s3.2: "handling of sparse address spaces ... is problematic on
    // a linear page table system like the VAX".
    auto linear = makeLinearPageTable((1ULL << 20) - 1);
    auto hashed = makeHashedPageTable(256);
    Vpn sparse = (1ULL << 20) - 2; // one page near the top
    linear->map(sparse, Pte{1, {}, false, false, false});
    hashed->map(sparse, Pte{1, {}, false, false, false});
    EXPECT_GT(linear->tableOverheadBytes(),
              1000 * hashed->tableOverheadBytes());
}

TEST(LinearPageTable, RejectsVpnBeyondLimit)
{
    auto linear = makeLinearPageTable(100);
    EXPECT_DEATH(linear->map(101, Pte{}), "beyond");
}

TEST(MultiLevelPageTable, WalkDepthIsThreeForBasePages)
{
    auto t = makeMultiLevelPageTable();
    t->map(0x12345, Pte{9, {}, false, false, false});
    WalkResult r = t->walk(0x12345);
    ASSERT_TRUE(r.pte.has_value());
    EXPECT_EQ(r.levels, 3u);
    EXPECT_EQ(r.memoryRefs, 3u);
}

TEST(MultiLevelPageTable, SuperpageTerminatesAtLevelTwo)
{
    auto t = makeMultiLevelPageTable();
    Pte pte;
    pte.pfn = 0x1000;
    ASSERT_TRUE(t->mapSuperpage(64, pte)); // 256KB-aligned base
    WalkResult r = t->walk(64 + 17);
    ASSERT_TRUE(r.pte.has_value());
    EXPECT_EQ(r.levels, 2u);
    EXPECT_EQ(r.pte->pfn, 0x1000u + 17u); // contiguous region
}

TEST(MultiLevelPageTable, SuperpageCoversWholeRegion)
{
    auto t = makeMultiLevelPageTable();
    ASSERT_TRUE(t->mapSuperpage(0, Pte{0x500, {}, false, false,
                                       false}));
    for (Vpn v = 0; v < PageTable::superpagePages; ++v)
        EXPECT_TRUE(t->walk(v).pte.has_value()) << v;
    EXPECT_FALSE(t->walk(PageTable::superpagePages).pte.has_value());
}

TEST(MultiLevelPageTable, UnalignedSuperpageIsFatal)
{
    auto t = makeMultiLevelPageTable();
    EXPECT_DEATH(t->mapSuperpage(3, Pte{}), "aligned");
}

TEST(MultiLevelPageTable, UnmapDropsSuperpage)
{
    auto t = makeMultiLevelPageTable();
    t->mapSuperpage(64, Pte{1, {}, false, false, false});
    t->unmap(64); // unmapping the base drops the terminal PTE
    EXPECT_FALSE(t->walk(70).pte.has_value());
}

TEST(HashedPageTable, SuperpagesNotSupported)
{
    auto t = makeHashedPageTable(64);
    EXPECT_FALSE(t->mapSuperpage(0, Pte{}));
}

TEST(HashedPageTable, CollisionChainsStillResolve)
{
    auto t = makeHashedPageTable(1); // everything collides
    for (Vpn v = 0; v < 50; ++v)
        t->map(v, Pte{v + 1, {}, false, false, false});
    for (Vpn v = 0; v < 50; ++v) {
        WalkResult r = t->walk(v);
        ASSERT_TRUE(r.pte.has_value());
        EXPECT_EQ(r.pte->pfn, v + 1);
    }
    // Probes counted: worst-case chain walk touches many entries.
    EXPECT_GT(t->walk(49).memoryRefs, 1u);
}

TEST(PageTableFactory, NaturalStructures)
{
    EXPECT_EQ(makePageTableFor(makeMachine(MachineId::CVAX))
                  ->structureName(),
              "linear");
    EXPECT_EQ(makePageTableFor(makeMachine(MachineId::SPARC))
                  ->structureName(),
              "3-level");
    EXPECT_EQ(makePageTableFor(makeMachine(MachineId::R3000))
                  ->structureName(),
              "hashed");
    EXPECT_EQ(makePageTableFor(makeMachine(MachineId::RS6000))
                  ->structureName(),
              "hashed");
}

} // namespace
} // namespace aosd
