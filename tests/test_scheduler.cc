/**
 * @file
 * Tests for the kernel thread scheduler.
 */

#include <gtest/gtest.h>

#include "arch/machines.hh"
#include "os/kernel/scheduler.hh"

namespace aosd
{
namespace
{

class SchedulerTest : public ::testing::Test
{
  protected:
    SchedulerTest()
        : kernel(makeMachine(MachineId::R3000)), sched(kernel),
          a(kernel.createSpace("a")), b(kernel.createSpace("b"))
    {}

    SimKernel kernel;
    Scheduler sched;
    AddressSpace &a;
    AddressSpace &b;
};

TEST_F(SchedulerTest, RunsThreadToCompletion)
{
    int runs = 0;
    sched.spawn("t", a, [&] {
        return ++runs < 3 ? ThreadRunState::Ready
                          : ThreadRunState::Finished;
    });
    sched.run();
    EXPECT_EQ(runs, 3);
    EXPECT_EQ(sched.finishedCount(), 1u);
    EXPECT_EQ(sched.counts().dispatches, 3u);
}

TEST_F(SchedulerTest, RoundRobinAlternates)
{
    std::string order;
    sched.spawn("x", a, [&] {
        order += 'x';
        return order.size() < 6 ? ThreadRunState::Ready
                                : ThreadRunState::Finished;
    });
    sched.spawn("y", a, [&] {
        order += 'y';
        return order.size() < 6 ? ThreadRunState::Ready
                                : ThreadRunState::Finished;
    });
    sched.run(10);
    EXPECT_EQ(order.substr(0, 4), "xyxy");
}

TEST_F(SchedulerTest, PriorityPreempts)
{
    std::string order;
    sched.spawn("low", a, [&] {
        order += 'l';
        return ThreadRunState::Finished;
    }, /*priority=*/0);
    sched.spawn("high", a, [&] {
        order += 'h';
        return ThreadRunState::Finished;
    }, /*priority=*/5);
    sched.run();
    EXPECT_EQ(order, "hl");
}

TEST_F(SchedulerTest, BlockedThreadNeedsWake)
{
    int runs = 0;
    Scheduler::ThreadId id = sched.spawn("t", a, [&] {
        ++runs;
        return runs == 1 ? ThreadRunState::Blocked
                         : ThreadRunState::Finished;
    });
    sched.run();
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(sched.state(id), ThreadRunState::Blocked);
    sched.wake(id);
    sched.run();
    EXPECT_EQ(runs, 2);
    EXPECT_EQ(sched.state(id), ThreadRunState::Finished);
}

TEST_F(SchedulerTest, WakeOfReadyThreadIsNoop)
{
    Scheduler::ThreadId id = sched.spawn(
        "t", a, [] { return ThreadRunState::Finished; });
    sched.wake(id); // Ready, not Blocked
    sched.run();
    EXPECT_EQ(sched.counts().wakeups, 0u);
}

TEST_F(SchedulerTest, CrossSpaceDispatchPaysContextSwitch)
{
    kernel.contextSwitchTo(a);
    kernel.resetAccounting();
    sched.spawn("in-b", b, [] { return ThreadRunState::Finished; });
    sched.run();
    EXPECT_EQ(kernel.counts().addrSpaceSwitches, 1u);
}

TEST_F(SchedulerTest, SameSpaceDispatchIsThreadSwitchOnly)
{
    kernel.contextSwitchTo(a);
    kernel.resetAccounting();
    sched.spawn("t1", a, [] { return ThreadRunState::Finished; });
    sched.spawn("t2", a, [] { return ThreadRunState::Finished; });
    sched.run();
    EXPECT_EQ(kernel.counts().addrSpaceSwitches, 0u);
    EXPECT_EQ(kernel.counts().threadSwitches, 1u);
}

TEST_F(SchedulerTest, RunHonoursDispatchLimit)
{
    sched.spawn("spin", a, [] { return ThreadRunState::Ready; });
    EXPECT_EQ(sched.run(7), 7u);
    EXPECT_EQ(sched.readyCount(), 1u);
}

TEST_F(SchedulerTest, ClientServerPingPong)
{
    // A miniature RPC shape: client blocks, server wakes it.
    int phase = 0;
    Scheduler::ThreadId client = 0, server = 0;
    client = sched.spawn("client", a, [&] {
        if (phase == 0) {
            phase = 1;
            sched.wake(server);
            return ThreadRunState::Blocked;
        }
        return ThreadRunState::Finished;
    });
    server = sched.spawn("server", b, [&] {
        if (phase == 0)
            return ThreadRunState::Blocked;
        phase = 2;
        sched.wake(client);
        return ThreadRunState::Finished;
    });
    sched.run();
    EXPECT_EQ(phase, 2);
    EXPECT_EQ(sched.finishedCount(), 2u);
    // Two cross-space hops happened (a->b, b->a).
    EXPECT_GE(kernel.counts().addrSpaceSwitches, 2u);
}

TEST_F(SchedulerTest, StateQueryOfUnknownThreadPanics)
{
    EXPECT_DEATH(sched.state(99), "unknown thread");
}

} // namespace
} // namespace aosd
