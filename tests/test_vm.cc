/**
 * @file
 * Unit tests for the VM manager: fault pipeline, copy-on-write
 * semantics, user-level fault reflection (§3).
 */

#include <gtest/gtest.h>

#include "arch/machines.hh"
#include "os/vm/vm_manager.hh"

namespace aosd
{
namespace
{

class VmTest : public ::testing::Test
{
  protected:
    VmTest()
        : kernel(makeMachine(MachineId::R3000)), vm(kernel),
          client(kernel.createSpace("client")),
          server(kernel.createSpace("server"))
    {}

    SimKernel kernel;
    VmManager vm;
    AddressSpace &client;
    AddressSpace &server;
};

TEST_F(VmTest, ZeroFillMapsWritablePages)
{
    PageProt rw;
    rw.writable = true;
    vm.mapZeroFill(client, 0x100, 4, rw);
    EXPECT_EQ(client.pageTable().mappedPages(), 4u);
    EXPECT_EQ(vm.access(client, 0x102, true), FaultResult::Resolved);
}

TEST_F(VmTest, UnmappedAccessFaults)
{
    EXPECT_EQ(vm.access(client, 0x500, false), FaultResult::NotMapped);
    EXPECT_EQ(kernel.counts().traps, 1u);
}

TEST_F(VmTest, CowShareMakesBothSidesReadOnly)
{
    PageProt rw;
    rw.writable = true;
    vm.mapZeroFill(client, 0x100, 4, rw);
    vm.shareCopyOnWrite(client, 0x100, server, 0x200, 4);

    EXPECT_EQ(vm.access(client, 0x100, false), FaultResult::Resolved);
    EXPECT_EQ(vm.access(server, 0x200, false), FaultResult::Resolved);
    // Frames are shared, not copied.
    EXPECT_EQ(client.pageTable().walk(0x100).pte->pfn,
              server.pageTable().walk(0x200).pte->pfn);
    EXPECT_EQ(vm.cowSharedFrames(), 4u);
}

TEST_F(VmTest, CowWriteBreaksTheShare)
{
    PageProt rw;
    rw.writable = true;
    vm.mapZeroFill(client, 0x100, 2, rw);
    vm.shareCopyOnWrite(client, 0x100, server, 0x200, 2);

    Pfn shared = server.pageTable().walk(0x200).pte->pfn;
    EXPECT_EQ(vm.access(server, 0x200, true),
              FaultResult::CopiedOnWrite);
    Pfn copied = server.pageTable().walk(0x200).pte->pfn;
    EXPECT_NE(copied, shared);
    EXPECT_TRUE(server.pageTable().walk(0x200).pte->prot.writable);
    // Client still maps the original, untouched.
    EXPECT_EQ(client.pageTable().walk(0x100).pte->pfn, shared);
    // Second page still shared.
    EXPECT_EQ(vm.cowSharedFrames(), 1u);
}

TEST_F(VmTest, CowWriteRetryAfterBreakSucceeds)
{
    PageProt rw;
    rw.writable = true;
    vm.mapZeroFill(client, 0x100, 1, rw);
    vm.shareCopyOnWrite(client, 0x100, server, 0x200, 1);
    EXPECT_EQ(vm.access(server, 0x200, true),
              FaultResult::CopiedOnWrite);
    EXPECT_EQ(vm.access(server, 0x200, true), FaultResult::Resolved);
}

TEST_F(VmTest, CowBreakChargesTrapAndPteChange)
{
    PageProt rw;
    rw.writable = true;
    vm.mapZeroFill(client, 0x100, 1, rw);
    vm.shareCopyOnWrite(client, 0x100, server, 0x200, 1);
    kernel.resetAccounting();
    vm.access(server, 0x200, true);
    EXPECT_EQ(kernel.counts().traps, 1u);
    EXPECT_EQ(kernel.counts().pteChanges, 1u);
    EXPECT_EQ(vm.counts().cowBreaks, 1u);
    EXPECT_GT(kernel.elapsedCycles(), 0u);
}

TEST_F(VmTest, BothSidesWritingGetPrivateCopies)
{
    PageProt rw;
    rw.writable = true;
    vm.mapZeroFill(client, 0x100, 1, rw);
    vm.shareCopyOnWrite(client, 0x100, server, 0x200, 1);
    vm.access(server, 0x200, true);
    vm.access(client, 0x100, true);
    EXPECT_NE(client.pageTable().walk(0x100).pte->pfn,
              server.pageTable().walk(0x200).pte->pfn);
    EXPECT_EQ(vm.cowSharedFrames(), 0u);
    EXPECT_TRUE(client.pageTable().walk(0x100).pte->prot.writable);
}

TEST_F(VmTest, ProtectionFaultWithoutHandler)
{
    PageProt ro;
    ro.writable = false;
    vm.mapZeroFill(client, 0x100, 1, ro);
    EXPECT_EQ(vm.access(client, 0x100, true),
              FaultResult::ProtectionError);
}

TEST_F(VmTest, UserHandlerReceivesReflectedFault)
{
    PageProt ro;
    ro.writable = false;
    vm.mapZeroFill(client, 0x100, 1, ro);

    int handled = 0;
    vm.setUserHandler(client, [&](AddressSpace &space, Vpn vpn,
                                  bool write) {
        ++handled;
        EXPECT_EQ(vpn, 0x100u);
        EXPECT_TRUE(write);
        // GC-barrier style: upgrade the page and continue.
        PageProt rw;
        rw.writable = true;
        space.pageTable().protect(vpn, rw);
        return true;
    });

    EXPECT_EQ(vm.access(client, 0x100, true),
              FaultResult::ReflectedToUser);
    EXPECT_EQ(handled, 1);
    EXPECT_EQ(vm.access(client, 0x100, true), FaultResult::Resolved);
}

TEST_F(VmTest, ReflectionCostsTwoBoundaryCrossings)
{
    // s3: reflecting a fault to user level requires efficient trap
    // dispatch *and* kernel/user crossings.
    PageProt ro;
    vm.mapZeroFill(client, 0x100, 1, ro);
    vm.setUserHandler(client,
                      [](AddressSpace &, Vpn, bool) { return true; });
    kernel.resetAccounting();
    vm.access(client, 0x100, true);
    EXPECT_EQ(kernel.counts().traps, 1u);
    EXPECT_EQ(kernel.counts().syscalls, 2u);
    EXPECT_EQ(vm.counts().reflectedFaults, 1u);
}

TEST_F(VmTest, HandlerFailureReportsProtectionError)
{
    PageProt ro;
    vm.mapZeroFill(client, 0x100, 1, ro);
    vm.setUserHandler(client,
                      [](AddressSpace &, Vpn, bool) { return false; });
    EXPECT_EQ(vm.access(client, 0x100, true),
              FaultResult::ProtectionError);
}

TEST_F(VmTest, ProtectSweepChargesPerPage)
{
    PageProt rw;
    rw.writable = true;
    vm.mapZeroFill(client, 0x100, 8, rw);
    kernel.resetAccounting();
    PageProt ro;
    vm.protect(client, 0x100, 8, ro);
    EXPECT_EQ(kernel.counts().pteChanges, 8u);
}

} // namespace
} // namespace aosd
