/**
 * @file
 * Tests for the Ethernet timing model and the multi-node network.
 */

#include <gtest/gtest.h>

#include "net/network.hh"

namespace aosd
{
namespace
{

TEST(Ethernet, WireTimeMatchesBandwidth)
{
    Ethernet e(EthernetDesc{10.0, 34, 25.0, 1});
    // (74+34) bytes * 8 bits / 10 Mbit/s = 86.4 us.
    EXPECT_NEAR(e.wireTimeUs(74), 86.4, 0.01);
    // 10x the bandwidth, a tenth the time.
    Ethernet fast(EthernetDesc{100.0, 34, 25.0, 1});
    EXPECT_NEAR(fast.wireTimeUs(74), 8.64, 0.01);
}

TEST(Ethernet, FramingDominatesSmallPackets)
{
    Ethernet e(EthernetDesc{10.0, 34, 25.0, 1});
    double empty = e.wireTimeUs(0);
    double one = e.wireTimeUs(1);
    EXPECT_GT(empty, 25.0); // header time alone
    EXPECT_GT(one, empty);
}

TEST(Network, DeliversToDestination)
{
    EventQueue q;
    Network net(q, EthernetDesc{});
    std::vector<Packet> received;
    net.addNode([](const Packet &) { FAIL() << "wrong node"; });
    net.addNode([&](const Packet &p) { received.push_back(p); });
    net.send(0, 1, 100);
    q.run();
    ASSERT_EQ(received.size(), 1u);
    EXPECT_EQ(received[0].payloadBytes, 100u);
    EXPECT_EQ(received[0].srcNode, 0u);
}

TEST(Network, DeliveryTimeIncludesWireAndController)
{
    EventQueue q;
    EthernetDesc link;
    link.controllerLatencyUs = 25.0;
    Network net(q, link);
    Tick delivered = 0;
    net.addNode([](const Packet &) {});
    net.addNode([&](const Packet &) { delivered = 0; });
    net.send(0, 1, 74);
    q.run();
    Ethernet e(link);
    Tick expected = 2 * e.controllerTime() + e.wireTime(74);
    EXPECT_EQ(q.now(), expected);
}

TEST(Network, SharedSegmentSerializesFrames)
{
    EventQueue q;
    Network net(q, EthernetDesc{});
    std::vector<std::uint64_t> order;
    net.addNode([](const Packet &) {});
    net.addNode([&](const Packet &p) { order.push_back(p.id); });
    net.addNode([](const Packet &) {});
    // Two sends at the same instant: the second waits for the wire.
    net.send(0, 1, 1000);
    net.send(2, 1, 10);
    Tick t0 = 0;
    q.run();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 0u); // first queued goes first
    EXPECT_GT(q.now(), t0);
    EXPECT_EQ(net.packets(), 2u);
}

TEST(Network, PacketsCarrySequentialIds)
{
    EventQueue q;
    Network net(q, EthernetDesc{});
    std::vector<std::uint64_t> ids;
    net.addNode([&](const Packet &p) { ids.push_back(p.id); });
    net.send(0, 0, 1);
    net.send(0, 0, 1);
    net.send(0, 0, 1);
    q.run();
    EXPECT_EQ(ids, (std::vector<std::uint64_t>{0, 1, 2}));
}

TEST(NetworkDeathTest, UnknownNodePanics)
{
    EventQueue q;
    Network net(q, EthernetDesc{});
    net.addNode([](const Packet &) {});
    EXPECT_DEATH(net.send(0, 5, 10), "unregistered");
}

} // namespace
} // namespace aosd
