/**
 * @file
 * Unit tests for the simulation substrate: ticks, RNG, event queue
 * and the table formatter.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/table.hh"
#include "sim/ticks.hh"

namespace aosd
{
namespace
{

TEST(Clock, RoundTripCycles)
{
    Clock c = Clock::fromMHz(25.0);
    EXPECT_EQ(c.period(), 40000u); // 40 ns in picosecond ticks
    EXPECT_EQ(c.cyclesToTicks(10), 400000u);
    EXPECT_DOUBLE_EQ(c.cyclesToMicros(25), 1.0);
    EXPECT_EQ(c.microsToCycles(1.0), 25u);
}

TEST(Clock, FractionalMegahertz)
{
    Clock c = Clock::fromMHz(16.67);
    // ~60 ns period.
    EXPECT_NEAR(static_cast<double>(c.period()), 60000.0, 50.0);
    EXPECT_NEAR(c.mhz(), 16.67, 0.05);
}

TEST(Clock, CvaxRate)
{
    Clock c = Clock::fromMHz(11.1);
    EXPECT_NEAR(c.cyclesToMicros(175), 15.8, 0.1);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_EQ(same, 0);
}

TEST(Rng, BelowRespectsBound)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(9);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double v = r.uniform();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BetweenInclusive)
{
    Rng r(3);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        auto v = r.between(5, 8);
        ASSERT_GE(v, 5u);
        ASSERT_LE(v, 8u);
        saw_lo |= (v == 5);
        saw_hi |= (v == 8);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, TieBreakIsSchedulingOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&] { order.push_back(1); });
    q.schedule(5, [&] { order.push_back(2); });
    q.schedule(5, [&] { order.push_back(3); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EventsMayScheduleEvents)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1, [&] {
        ++fired;
        q.scheduleAfter(4, [&] { ++fired; });
    });
    q.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.now(), 5u);
}

TEST(EventQueue, RunUntilStopsAtBoundary)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&] { ++fired; });
    q.schedule(20, [&] { ++fired; });
    q.runUntil(15);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.now(), 15u);
    EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, ResetDropsEverything)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.reset();
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_EQ(q.now(), 0u);
}

TEST(EventQueueDeathTest, SchedulingInThePastPanics)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.run();
    EXPECT_DEATH(q.schedule(5, [] {}), "past");
}

TEST(Table, RendersAlignedColumns)
{
    TextTable t;
    t.header({"Op", "us"});
    t.row({"syscall", "15.8"});
    t.separator();
    t.row({"trap", "23.1"});
    std::string out = t.render();
    EXPECT_NE(out.find("syscall"), std::string::npos);
    EXPECT_NE(out.find("23.1"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, NumberFormatting)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::grouped(1234567), "1,234,567");
    EXPECT_EQ(TextTable::grouped(12), "12");
}

} // namespace
} // namespace aosd
