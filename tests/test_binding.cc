/**
 * @file
 * Tests for LRPC bindings, A-stacks, and the physical frame allocator.
 */

#include <gtest/gtest.h>

#include "arch/machines.hh"
#include "mem/phys_mem.hh"
#include "os/ipc/binding.hh"
#include "os/kernel/kernel.hh"

namespace aosd
{
namespace
{

class BindingTest : public ::testing::Test
{
  protected:
    BindingTest()
        : kernel(makeMachine(MachineId::CVAX)),
          client(kernel.createSpace("client")),
          server(kernel.createSpace("server"))
    {}

    SimKernel kernel;
    AddressSpace &client;
    AddressSpace &server;
    BindingRegistry registry;
};

TEST_F(BindingTest, BindToExportedInterface)
{
    registry.exportInterface("fs", server);
    auto id = registry.bind("fs", client);
    ASSERT_TRUE(id.has_value());
    Binding *b = registry.binding(*id);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->client(), &client);
    EXPECT_EQ(b->server(), &server);
}

TEST_F(BindingTest, BindToUnknownInterfaceFails)
{
    EXPECT_FALSE(registry.bind("nope", client).has_value());
    EXPECT_EQ(registry.bindFailures(), 1u);
}

TEST_F(BindingTest, DoubleExportIsFatal)
{
    registry.exportInterface("fs", server);
    EXPECT_EXIT(registry.exportInterface("fs", server),
                ::testing::ExitedWithCode(1), "already exported");
}

TEST_F(BindingTest, ValidationChecksCaller)
{
    registry.exportInterface("fs", server);
    auto id = registry.bind("fs", client);
    EXPECT_TRUE(registry.validate(*id, client));
    EXPECT_FALSE(registry.validate(*id, server)); // wrong domain
    EXPECT_FALSE(registry.validate(42, client));  // no such binding
}

TEST_F(BindingTest, AStacksAreExhaustible)
{
    registry.exportInterface("fs", server);
    auto id = registry.bind("fs", client, /*astacks=*/2);
    Binding *b = registry.binding(*id);
    auto s1 = b->acquireAStack();
    auto s2 = b->acquireAStack();
    ASSERT_TRUE(s1 && s2);
    EXPECT_NE(*s1, *s2);
    EXPECT_FALSE(b->acquireAStack().has_value()); // all in use
    b->releaseAStack(*s1);
    EXPECT_TRUE(b->acquireAStack().has_value());
}

TEST_F(BindingTest, AStacksMappedAtDistinctSharedAddresses)
{
    registry.exportInterface("fs", server);
    registry.exportInterface("net", server);
    // Take the Binding pointers only after both bind() calls: bind()
    // can grow the registry's vector and invalidate earlier pointers.
    std::uint32_t id1 = *registry.bind("fs", client, 4);
    std::uint32_t id2 = *registry.bind("net", client, 4);
    auto b1 = registry.binding(id1);
    auto b2 = registry.binding(id2);
    // A-stack VPNs never collide across bindings.
    for (const AStack &s1 : b1->aStacks())
        for (const AStack &s2 : b2->aStacks())
            EXPECT_NE(s1.vpn, s2.vpn);
}

TEST_F(BindingTest, FreeCountTracksUse)
{
    registry.exportInterface("fs", server);
    Binding *b = registry.binding(*registry.bind("fs", client, 3));
    EXPECT_EQ(b->freeAStacks(), 3u);
    auto s = b->acquireAStack();
    EXPECT_EQ(b->freeAStacks(), 2u);
    b->releaseAStack(*s);
    EXPECT_EQ(b->freeAStacks(), 3u);
}

// ---- physical memory -------------------------------------------------

TEST(PhysMem, AllocatesDistinctFrames)
{
    PhysMem mem(8);
    Pfn a = mem.alloc();
    Pfn b = mem.alloc();
    EXPECT_NE(a, b);
    EXPECT_EQ(mem.allocatedFrames(), 2u);
    EXPECT_EQ(mem.freeFrames(), 6u);
}

TEST(PhysMem, FreeRecyclesFrames)
{
    PhysMem mem(2);
    Pfn a = mem.alloc();
    Pfn b = mem.alloc();
    mem.free(a);
    Pfn c = mem.alloc();
    EXPECT_EQ(c, a); // LIFO recycling, deterministic
    EXPECT_NE(c, b);
}

TEST(PhysMem, PeakTracksHighWater)
{
    PhysMem mem(4);
    Pfn a = mem.alloc();
    mem.alloc();
    mem.free(a);
    mem.alloc();
    EXPECT_EQ(mem.peakAllocated(), 2u);
}

TEST(PhysMem, ExhaustionIsFatal)
{
    PhysMem mem(1);
    mem.alloc();
    EXPECT_EXIT(mem.alloc(), ::testing::ExitedWithCode(1),
                "out of physical memory");
}

TEST(PhysMem, DoubleFreePanics)
{
    PhysMem mem(2);
    Pfn a = mem.alloc();
    mem.free(a);
    EXPECT_DEATH(mem.free(a), "unallocated");
}

} // namespace
} // namespace aosd
