/**
 * @file
 * Tests for the Ivy-style distributed shared virtual memory (§3):
 * protocol transitions, coherence invariants, cost behaviour, and a
 * randomized property suite.
 */

#include <gtest/gtest.h>

#include "arch/machines.hh"
#include "os/vm/dsm.hh"
#include "sim/random.hh"

namespace aosd
{
namespace
{

IvyDsm
makeDsm(std::uint32_t nodes = 3, std::uint64_t pages = 8)
{
    return IvyDsm(makeMachine(MachineId::R3000), nodes, pages);
}

TEST(Dsm, InitialOwnerHoldsWriteAccess)
{
    IvyDsm dsm = makeDsm();
    EXPECT_EQ(dsm.owner(0), 0u);
    EXPECT_EQ(dsm.access(0, 0), DsmAccess::Write);
    EXPECT_EQ(dsm.access(1, 0), DsmAccess::None);
    EXPECT_TRUE(dsm.coherent());
}

TEST(Dsm, LocalWriteIsCheap)
{
    IvyDsm dsm = makeDsm();
    double us = dsm.write(0, 0);
    EXPECT_LT(us, 1.0);
    EXPECT_EQ(dsm.counts().writeFaults, 0u);
}

TEST(Dsm, RemoteReadReplicatesAndDowngradesWriter)
{
    IvyDsm dsm = makeDsm();
    double us = dsm.read(1, 0);
    EXPECT_GT(us, 100.0); // page transfer over Ethernet
    EXPECT_EQ(dsm.access(1, 0), DsmAccess::Read);
    // s3: "the writer's copy [is] changed back to read-only".
    EXPECT_EQ(dsm.access(0, 0), DsmAccess::Read);
    EXPECT_EQ(dsm.copyHolders(0), 2u);
    EXPECT_TRUE(dsm.coherent());
}

TEST(Dsm, SecondReadIsLocalHit)
{
    IvyDsm dsm = makeDsm();
    dsm.read(1, 0);
    std::uint64_t faults = dsm.counts().readFaults;
    double us = dsm.read(1, 0);
    EXPECT_LT(us, 1.0);
    EXPECT_EQ(dsm.counts().readFaults, faults);
}

TEST(Dsm, WriteInvalidatesAllReplicas)
{
    IvyDsm dsm = makeDsm(4);
    dsm.read(1, 0);
    dsm.read(2, 0);
    dsm.read(3, 0);
    EXPECT_EQ(dsm.copyHolders(0), 4u);

    dsm.write(2, 0);
    EXPECT_EQ(dsm.owner(0), 2u);
    EXPECT_EQ(dsm.access(2, 0), DsmAccess::Write);
    EXPECT_EQ(dsm.copyHolders(0), 1u);
    EXPECT_EQ(dsm.access(0, 0), DsmAccess::None);
    EXPECT_EQ(dsm.access(1, 0), DsmAccess::None);
    EXPECT_EQ(dsm.counts().invalidations, 3u);
    EXPECT_TRUE(dsm.coherent());
}

TEST(Dsm, WriterWithoutCopyFetchesThePage)
{
    IvyDsm dsm = makeDsm();
    std::uint64_t before = dsm.counts().pageTransfers;
    dsm.write(1, 3); // node 1 never read page 3
    EXPECT_EQ(dsm.counts().pageTransfers, before + 1);
    EXPECT_EQ(dsm.owner(3), 1u);
}

TEST(Dsm, ReaderFaultChargesTrapOnFaultingNode)
{
    IvyDsm dsm = makeDsm();
    dsm.read(1, 0);
    EXPECT_EQ(dsm.nodeKernel(1).counts().traps, 1u);
    EXPECT_EQ(dsm.nodeKernel(2).counts().traps, 0u);
}

TEST(Dsm, PagesAreIndependent)
{
    IvyDsm dsm = makeDsm();
    dsm.write(1, 0);
    EXPECT_EQ(dsm.owner(0), 1u);
    EXPECT_EQ(dsm.owner(1), 0u);
    EXPECT_EQ(dsm.access(1, 1), DsmAccess::None);
}

TEST(Dsm, PingPongWritesAreExpensive)
{
    IvyDsm dsm = makeDsm(2, 1);
    double total = 0;
    for (int i = 0; i < 10; ++i) {
        total += dsm.write(i % 2, 0);
    }
    // Every write after the first faults: false sharing is costly.
    EXPECT_EQ(dsm.counts().writeFaults, 9u);
    EXPECT_GT(total, 9 * 100.0);
}

TEST(Dsm, InvalidationDropsRemoteTlbEntry)
{
    IvyDsm dsm = makeDsm();
    dsm.read(1, 0);
    SimKernel &n1 = dsm.nodeKernel(1);
    n1.tlb().insert(0, n1.currentSpace().asid(), 0x5000, {});
    dsm.write(2, 0);
    EXPECT_FALSE(
        n1.tlb().lookup(0, n1.currentSpace().asid()).hit);
}

/** Property suite: random op sequences preserve coherence. */
class DsmPropertyTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(DsmPropertyTest, CoherenceHoldsUnderRandomTraffic)
{
    Rng rng(GetParam());
    IvyDsm dsm(makeMachine(MachineId::R3000), 4, 6);
    for (int i = 0; i < 400; ++i) {
        auto node = static_cast<std::uint32_t>(rng.below(4));
        std::uint64_t page = rng.below(6);
        if (rng.chance(0.5))
            dsm.read(node, page);
        else
            dsm.write(node, page);
        ASSERT_TRUE(dsm.coherent()) << "op " << i;
        // After a read the node can read; after a write, write.
    }
    // Writers are unique per page.
    for (std::uint64_t p = 0; p < 6; ++p) {
        std::uint32_t writers = 0;
        for (std::uint32_t n = 0; n < 4; ++n)
            writers += dsm.access(n, p) == DsmAccess::Write;
        EXPECT_LE(writers, 1u);
    }
}

TEST_P(DsmPropertyTest, AccessRightsFollowProtocol)
{
    Rng rng(GetParam() ^ 0xABCDEF);
    IvyDsm dsm(makeMachine(MachineId::R3000), 3, 4);
    for (int i = 0; i < 200; ++i) {
        auto node = static_cast<std::uint32_t>(rng.below(3));
        std::uint64_t page = rng.below(4);
        if (rng.chance(0.5)) {
            dsm.read(node, page);
            ASSERT_NE(dsm.access(node, page), DsmAccess::None);
        } else {
            dsm.write(node, page);
            ASSERT_EQ(dsm.access(node, page), DsmAccess::Write);
            ASSERT_EQ(dsm.owner(page), node);
            ASSERT_EQ(dsm.copyHolders(page), 1u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DsmPropertyTest,
                         ::testing::Values(11, 23, 37, 91, 1991));

} // namespace
} // namespace aosd
