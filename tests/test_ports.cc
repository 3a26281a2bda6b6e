/**
 * @file
 * Tests for Mach-style ports: rights, queues, blocking, and the §5
 * RPC cost identity.
 */

#include <gtest/gtest.h>

#include "arch/machines.hh"
#include "os/ipc/ports.hh"

namespace aosd
{
namespace
{

class PortsTest : public ::testing::Test
{
  protected:
    PortsTest()
        : kernel(makeMachine(MachineId::R3000)), ports(kernel, 4),
          client(kernel.createSpace("client")),
          server(kernel.createSpace("server"))
    {}

    SimKernel kernel;
    PortSpace ports;
    AddressSpace &client;
    AddressSpace &server;
};

TEST_F(PortsTest, OwnerHoldsReceiveAndSendRights)
{
    PortId p = ports.allocate(server);
    EXPECT_TRUE(ports.hasSendRight(p, server));
    EXPECT_FALSE(ports.hasSendRight(p, client));
}

TEST_F(PortsTest, SendRequiresARight)
{
    PortId p = ports.allocate(server);
    EXPECT_EQ(ports.send(client, p, 64), PortResult::NoRight);
    ports.grantSendRight(p, client);
    EXPECT_EQ(ports.send(client, p, 64), PortResult::Success);
    EXPECT_EQ(ports.counts().rightsViolations, 1u);
}

TEST_F(PortsTest, MessagesArriveInOrder)
{
    PortId p = ports.allocate(server);
    ports.grantSendRight(p, client);
    ports.send(client, p, 10);
    ports.send(client, p, 20);
    PortMessage m;
    ASSERT_EQ(ports.receive(server, p, m), PortResult::Success);
    EXPECT_EQ(m.bytes, 10u);
    ASSERT_EQ(ports.receive(server, p, m), PortResult::Success);
    EXPECT_EQ(m.bytes, 20u);
    EXPECT_EQ(m.sender, &client);
}

TEST_F(PortsTest, QueueBoundIsEnforced)
{
    PortId p = ports.allocate(server);
    ports.grantSendRight(p, client);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(ports.send(client, p, 8), PortResult::Success);
    EXPECT_EQ(ports.send(client, p, 8), PortResult::QueueFull);
    EXPECT_EQ(ports.queued(p), 4u);
}

TEST_F(PortsTest, ReceiveOnEmptyWouldBlock)
{
    PortId p = ports.allocate(server);
    PortMessage m;
    EXPECT_EQ(ports.receive(server, p, m), PortResult::WouldBlock);
}

TEST_F(PortsTest, OnlyOwnerMayReceive)
{
    PortId p = ports.allocate(server);
    ports.grantSendRight(p, client);
    ports.send(client, p, 8);
    PortMessage m;
    EXPECT_EQ(ports.receive(client, p, m), PortResult::NoRight);
}

TEST_F(PortsTest, DestroyDropsQueuedMessages)
{
    PortId p = ports.allocate(server);
    ports.grantSendRight(p, client);
    ports.send(client, p, 8);
    EXPECT_FALSE(ports.destroy(p, client)); // non-owner cannot
    EXPECT_TRUE(ports.destroy(p, server));
    EXPECT_EQ(ports.send(client, p, 8), PortResult::NoSuchPort);
    EXPECT_EQ(ports.counts().droppedMessages, 1u);
}

TEST_F(PortsTest, EverySendAndReceiveIsASyscall)
{
    PortId p = ports.allocate(server);
    ports.grantSendRight(p, client);
    kernel.resetAccounting();
    ports.send(client, p, 8);
    PortMessage m;
    ports.receive(server, p, m);
    EXPECT_EQ(kernel.counts().syscalls, 2u);
    EXPECT_GT(kernel.elapsedCycles(), 0u);
}

TEST_F(PortsTest, RpcCostIdentity)
{
    // s5: invoking a service by RPC takes "at least two system calls
    // and two context switches ... to do the work of one system call
    // in a monolithic system". Our explicit send/receive traps make
    // it four syscalls; a combined send-receive trap (mach_msg) would
    // be the paper's two.
    PortId svc = ports.allocate(server);
    PortId reply = ports.allocate(client);
    ports.grantSendRight(svc, client);
    ports.grantSendRight(reply, server);
    kernel.contextSwitchTo(client);
    kernel.resetAccounting();

    ASSERT_TRUE(portRpc(kernel, ports, client, server, svc, reply,
                        64, 64));
    EXPECT_EQ(kernel.counts().syscalls, 4u);
    EXPECT_EQ(kernel.counts().addrSpaceSwitches, 2u);
    EXPECT_GE(kernel.counts().syscalls, 2u);
}

TEST_F(PortsTest, RpcFailsWithoutReplyRight)
{
    PortId svc = ports.allocate(server);
    PortId reply = ports.allocate(client);
    ports.grantSendRight(svc, client);
    // server was never granted a right on the reply port
    kernel.contextSwitchTo(client);
    EXPECT_FALSE(portRpc(kernel, ports, client, server, svc, reply,
                         64, 64));
}

} // namespace
} // namespace aosd
