/**
 * @file
 * Tests for the §3 VM-overloading clients: GC barrier, incremental
 * checkpoint, transaction locking.
 */

#include <gtest/gtest.h>

#include "arch/machines.hh"
#include "os/vm/vm_clients.hh"

namespace aosd
{
namespace
{

class VmClientTest : public ::testing::Test
{
  protected:
    VmClientTest()
        : kernel(makeMachine(MachineId::R3000)), vm(kernel),
          space(kernel.createSpace("client"))
    {
        PageProt rw;
        rw.writable = true;
        vm.mapZeroFill(space, 0x100, 16, rw);
    }

    SimKernel kernel;
    VmManager vm;
    AddressSpace &space;
};

// ---- GC barrier --------------------------------------------------------

TEST_F(VmClientTest, GcScansPagesOnFirstTouch)
{
    GcBarrier gc(vm, space);
    gc.startCollection(0x100, 16);
    EXPECT_FALSE(gc.collectionDone());
    gc.mutatorAccess(0x105, false);
    EXPECT_EQ(gc.scannedPages(), 1u);
    // Second access to the same page does not fault again.
    std::uint64_t traps = kernel.counts().traps;
    gc.mutatorAccess(0x105, true);
    EXPECT_EQ(kernel.counts().traps, traps);
    EXPECT_EQ(gc.scannedPages(), 1u);
}

TEST_F(VmClientTest, GcCollectionCompletes)
{
    GcBarrier gc(vm, space);
    gc.startCollection(0x100, 16);
    for (Vpn v = 0; v < 16; ++v)
        gc.mutatorAccess(0x100 + v, v % 2 == 0);
    EXPECT_TRUE(gc.collectionDone());
    EXPECT_EQ(gc.scannedPages(), 16u);
}

TEST_F(VmClientTest, GcFaultsChargeScanWork)
{
    GcBarrier gc(vm, space);
    gc.startCollection(0x100, 16);
    kernel.resetAccounting();
    gc.mutatorAccess(0x100, false);
    // Trap + 2 crossings + PTE-ish work + the scan itself.
    EXPECT_GT(kernel.elapsedCycles(),
              GcBarrier::scanInstructionsPerPage / 4);
    EXPECT_EQ(vm.counts().reflectedFaults, 1u);
}

TEST_F(VmClientTest, GcRestartResetsProgress)
{
    GcBarrier gc(vm, space);
    gc.startCollection(0x100, 16);
    gc.mutatorAccess(0x100, false);
    gc.startCollection(0x100, 16);
    EXPECT_EQ(gc.scannedPages(), 0u);
    // The page is protected again: the next touch faults.
    std::uint64_t reflected = vm.counts().reflectedFaults;
    gc.mutatorAccess(0x100, false);
    EXPECT_EQ(vm.counts().reflectedFaults, reflected + 1);
}

// ---- incremental checkpoint ---------------------------------------------

TEST_F(VmClientTest, CheckpointCopiesOnlyWrittenPages)
{
    IncrementalCheckpoint ckpt(vm, space);
    ckpt.begin(0x100, 16);
    ckpt.applicationWrite(0x101);
    ckpt.applicationWrite(0x102);
    ckpt.applicationWrite(0x101); // already copied
    EXPECT_EQ(ckpt.copiedPages(), 2u);
    EXPECT_EQ(ckpt.cleanPages(), 14u);
}

TEST_F(VmClientTest, CheckpointWriteIsFastAfterCopy)
{
    IncrementalCheckpoint ckpt(vm, space);
    ckpt.begin(0x100, 16);
    ckpt.applicationWrite(0x101);
    Cycles after_first = kernel.elapsedCycles();
    ckpt.applicationWrite(0x101);
    // No new fault or copy.
    EXPECT_EQ(kernel.elapsedCycles(), after_first);
}

TEST_F(VmClientTest, CheckpointReadsNeverFault)
{
    IncrementalCheckpoint ckpt(vm, space);
    ckpt.begin(0x100, 16);
    kernel.resetAccounting();
    EXPECT_EQ(vm.access(space, 0x103, false), FaultResult::Resolved);
    EXPECT_EQ(kernel.counts().traps, 0u);
}

// ---- transactions ---------------------------------------------------------

TEST_F(VmClientTest, TransactionReadThenCommit)
{
    TransactionVm tx(vm, space, 0x100, 16);
    auto t1 = tx.begin();
    EXPECT_TRUE(tx.read(t1, 0x100));
    EXPECT_TRUE(tx.read(t1, 0x100)); // re-read: no new fault
    EXPECT_EQ(tx.lockFaults(), 1u);
    tx.commit(t1);
    EXPECT_EQ(tx.aborts(), 0u);
}

TEST_F(VmClientTest, ReadersShareWritersExclude)
{
    TransactionVm tx(vm, space, 0x100, 16);
    auto t1 = tx.begin();
    auto t2 = tx.begin();
    EXPECT_TRUE(tx.read(t1, 0x100));
    EXPECT_TRUE(tx.read(t2, 0x100)); // shared read lock
    // t2 cannot upgrade while t1 reads: t2 aborts.
    EXPECT_FALSE(tx.write(t2, 0x100));
    EXPECT_EQ(tx.aborts(), 1u);
    // t1 can now upgrade (sole reader).
    EXPECT_TRUE(tx.write(t1, 0x100));
    tx.commit(t1);
}

TEST_F(VmClientTest, WriterBlocksLaterReaders)
{
    TransactionVm tx(vm, space, 0x100, 16);
    auto t1 = tx.begin();
    auto t2 = tx.begin();
    EXPECT_TRUE(tx.write(t1, 0x104));
    EXPECT_FALSE(tx.read(t2, 0x104)); // conflicts: t2 aborts
    EXPECT_EQ(tx.aborts(), 1u);
    // Operations on a dead transaction fail.
    EXPECT_FALSE(tx.read(t2, 0x105));
}

TEST_F(VmClientTest, CommitReleasesLocksForNextTransaction)
{
    TransactionVm tx(vm, space, 0x100, 16);
    auto t1 = tx.begin();
    EXPECT_TRUE(tx.write(t1, 0x100));
    tx.commit(t1);
    auto t2 = tx.begin();
    EXPECT_TRUE(tx.write(t2, 0x100));
    tx.commit(t2);
    EXPECT_EQ(tx.aborts(), 0u);
    // Each write re-faulted (locks were released between).
    EXPECT_EQ(tx.lockFaults(), 2u);
}

TEST_F(VmClientTest, TransactionFaultsChargePrimitives)
{
    TransactionVm tx(vm, space, 0x100, 16);
    kernel.resetAccounting();
    auto t1 = tx.begin();
    tx.read(t1, 0x100);
    tx.write(t1, 0x101);
    EXPECT_EQ(kernel.counts().traps, 2u);
    EXPECT_GE(kernel.counts().pteChanges, 2u);
}

} // namespace
} // namespace aosd
