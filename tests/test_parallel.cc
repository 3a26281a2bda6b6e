/**
 * @file
 * Tests for the parallel simulation runner: thread-pool batch
 * semantics (full index coverage, index-addressed results, exception
 * propagation), the shard-merge operations every slice result flows
 * through (CounterSet, Histogram, ProfNode — sum semantics,
 * identity, associativity), and the headline determinism contract:
 * report.json, counters.json and profile.json are byte-identical
 * between --jobs 1 and --jobs N.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "arch/machines.hh"
#include "sim/counters/counters.hh"
#include "sim/parallel/parallel_runner.hh"
#include "sim/parallel/thread_pool.hh"
#include "sim/profile/histogram.hh"
#include "sim/profile/profile.hh"
#include "study/counters_report.hh"
#include "study/figures.hh"
#include "study/profile_report.hh"
#include "study/report.hh"

using namespace aosd;

namespace
{

// ---------------------------------------------------------------- pool

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);

    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    pool.forEachIndex(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, ResultsLandInIndexAddressedSlots)
{
    ThreadPool pool(3);
    std::vector<std::size_t> out(257, 0);
    pool.forEachIndex(out.size(),
                      [&](std::size_t i) { out[i] = i * i; });
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPoolTest, ReusableAcrossBatches)
{
    ThreadPool pool(2);
    std::atomic<std::size_t> total{0};
    for (int batch = 0; batch < 5; ++batch)
        pool.forEachIndex(10, [&](std::size_t) { total.fetch_add(1); });
    EXPECT_EQ(total.load(), 50u);
}

TEST(ThreadPoolTest, LowestFailingIndexIsRethrown)
{
    ThreadPool pool(4);
    auto job = [](std::size_t i) {
        if (i == 37 || i == 11)
            throw std::runtime_error("job " + std::to_string(i));
    };
    try {
        pool.forEachIndex(64, job);
        FAIL() << "expected a rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "job 11");
    }
}

TEST(ThreadPoolTest, SurvivesAFailedBatch)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.forEachIndex(
                     8,
                     [](std::size_t i) {
                         if (i == 3)
                             throw std::runtime_error("boom");
                     }),
                 std::runtime_error);
    // The batch drained and the pool still works.
    std::atomic<std::size_t> ran{0};
    pool.forEachIndex(8, [&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 8u);
}

// -------------------------------------------------------------- runner

TEST(ParallelRunnerTest, DefaultJobsIsAtLeastOne)
{
    EXPECT_GE(ParallelRunner::defaultJobs(), 1u);
    ParallelRunner r(0);
    EXPECT_EQ(r.jobs(), ParallelRunner::defaultJobs());
}

TEST(ParallelRunnerTest, MapReturnsResultsInTaskOrder)
{
    ParallelRunner runner(4);
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < 100; ++i)
        tasks.push_back([i] { return 3 * i + 1; });
    std::vector<int> out = runner.map<int>(tasks);
    ASSERT_EQ(out.size(), tasks.size());
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(out[static_cast<std::size_t>(i)], 3 * i + 1);
}

TEST(ParallelRunnerTest, SerialRunnerStaysOnCallingThread)
{
    ParallelRunner serial(1);
    std::thread::id self = std::this_thread::get_id();
    std::vector<std::function<std::thread::id()>> tasks(
        8, [] { return std::this_thread::get_id(); });
    for (std::thread::id id : serial.map<std::thread::id>(tasks))
        EXPECT_EQ(id, self);
}

TEST(ParallelRunnerTest, EmptyTaskListIsANoOp)
{
    ParallelRunner runner(4);
    std::vector<std::function<int()>> none;
    EXPECT_TRUE(runner.map<int>(none).empty());
    runner.run({});
}

TEST(ParallelRunnerTest, TaskExceptionPropagatesToCaller)
{
    ParallelRunner runner(3);
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < 16; ++i)
        tasks.push_back([i]() -> int {
            if (i == 5)
                throw std::runtime_error("cell 5");
            return i;
        });
    EXPECT_THROW(runner.map<int>(tasks), std::runtime_error);
}

// --------------------------------------------------------- shard merge

TEST(ShardMergeTest, CounterSetSumsEventsAndMaxesHighWater)
{
    CounterSet a, b;
    a.set(HwCounter::Loads, 3);
    b.set(HwCounter::Loads, 4);
    a.set(HwCounter::WbOccupancyHighWater, 7);
    b.set(HwCounter::WbOccupancyHighWater, 5);
    a.merge(b);
    EXPECT_EQ(a.get(HwCounter::Loads), 7u);
    EXPECT_EQ(a.get(HwCounter::WbOccupancyHighWater), 7u);
}

TEST(ShardMergeTest, CounterSetEmptyIsIdentity)
{
    CounterSet a;
    a.set(HwCounter::TlbMisses, 42);
    a.set(HwCounter::WbOccupancyHighWater, 9);
    CounterSet before = a;
    a.merge(CounterSet{});
    EXPECT_EQ(a, before);
    CounterSet zero;
    zero.merge(before);
    EXPECT_EQ(zero, before);
}

TEST(ShardMergeTest, CounterSetMergeIsAssociative)
{
    CounterSet a, b, c;
    a.set(HwCounter::Stores, 1);
    b.set(HwCounter::Stores, 10);
    c.set(HwCounter::Stores, 100);
    a.set(HwCounter::WbOccupancyHighWater, 2);
    b.set(HwCounter::WbOccupancyHighWater, 8);
    c.set(HwCounter::WbOccupancyHighWater, 4);

    CounterSet left = a;
    left.merge(b);
    left.merge(c);

    CounterSet bc = b;
    bc.merge(c);
    CounterSet right = a;
    right.merge(bc);

    EXPECT_EQ(left, right);
}

TEST(ShardMergeTest, HistogramMergeAddsSamples)
{
    Histogram a, b;
    a.sample(1);
    a.sample(100);
    b.sample(7);
    b.sample(100000);
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_EQ(a.total(), 1u + 100u + 7u + 100000u);
    EXPECT_EQ(a.min(), 1u);
    EXPECT_EQ(a.max(), 100000u);

    // Empty in both directions is the identity.
    Histogram empty;
    Histogram c = a;
    c.merge(empty);
    EXPECT_EQ(c.toJson().dump(), a.toJson().dump());
    empty.merge(a);
    EXPECT_EQ(empty.toJson().dump(), a.toJson().dump());
}

TEST(ShardMergeTest, ProfNodeMergeSumsMatchedChildren)
{
    ProfNode a;
    a.name = "total";
    a.selfCycles = 5;
    a.entries = 1;
    ProfNode *ak = a.child("kernel");
    ak->selfCycles = 10;
    ak->entries = 2;
    ak->spans.sample(10);

    ProfNode b;
    b.name = "total";
    b.selfCycles = 2;
    b.entries = 1;
    ProfNode *bk = b.child("kernel");
    bk->selfCycles = 30;
    bk->entries = 1;
    bk->spans.sample(30);
    ProfNode *bu = b.child("user");
    bu->selfCycles = 4;
    bu->entries = 1;

    a.mergeFrom(b);
    EXPECT_EQ(a.selfCycles, 7u);
    EXPECT_EQ(a.entries, 2u);
    EXPECT_EQ(a.totalCycles(), 7u + 40u + 4u);
    const ProfNode *k = a.find("kernel");
    ASSERT_NE(k, nullptr);
    EXPECT_EQ(k->selfCycles, 40u);
    EXPECT_EQ(k->entries, 3u);
    EXPECT_EQ(k->spans.count(), 2u);
    const ProfNode *u = a.find("user");
    ASSERT_NE(u, nullptr);
    EXPECT_EQ(u->selfCycles, 4u);

    // Merging an empty tree changes nothing.
    std::string before = a.toJson().dump();
    ProfNode empty;
    empty.name = "total";
    a.mergeFrom(empty);
    EXPECT_EQ(a.toJson().dump(), before);
}

// --------------------------------------------------------- determinism

TEST(DeterminismTest, CountersDocByteIdenticalAcrossJobCounts)
{
    const std::vector<MachineDesc> machines = table1Machines();
    ParallelRunner serial(1);
    ParallelRunner wide(4);
    Json serial_doc =
        buildCountersDoc(countAllPrimitives(machines, 2, serial), 2);
    Json wide_doc =
        buildCountersDoc(countAllPrimitives(machines, 2, wide), 2);
    EXPECT_EQ(serial_doc.dump(1), wide_doc.dump(1));
}

TEST(DeterminismTest, ProfileDocByteIdenticalAcrossJobCounts)
{
    const std::vector<MachineDesc> machines = table1Machines();
    ParallelRunner serial(1);
    ParallelRunner wide(4);
    Json serial_doc = buildProfileDoc(
        machines, profileAllPrimitives(machines, 2, serial), 2);
    Json wide_doc = buildProfileDoc(
        machines, profileAllPrimitives(machines, 2, wide), 2);
    EXPECT_EQ(serial_doc.dump(1), wide_doc.dump(1));
}

TEST(DeterminismTest, ReportByteIdenticalAcrossJobCounts)
{
    ParallelRunner serial(1);
    ParallelRunner wide(4);
    Json serial_doc = buildReport(serial);
    Json wide_doc = buildReport(wide);
    EXPECT_EQ(serial_doc.dump(1), wide_doc.dump(1));
}

// allFigures simulates the Table 7 grid once and hands it to all three
// grid builders; each builder's runner form simulates its own grid.
// Both paths must give the same figures, bit for bit.
TEST(DeterminismTest, GridBuildersMatchTheSharedGrid)
{
    for (unsigned jobs : {1u, 4u}) {
        ParallelRunner runner(jobs);
        std::vector<Figure> all = allFigures(runner);
        using Builder = std::vector<Figure> (*)(ParallelRunner &);
        for (Builder fn : {static_cast<Builder>(table7Figures),
                           static_cast<Builder>(headlineFigures),
                           static_cast<Builder>(kernelWindowFigures)}) {
            std::vector<Figure> part = fn(runner);
            ASSERT_FALSE(part.empty());
            for (const Figure &f : part) {
                auto it = std::find_if(
                    all.begin(), all.end(), [&f](const Figure &g) {
                        return g.table == f.table && g.id == f.id;
                    });
                ASSERT_NE(it, all.end()) << f.id << " at jobs " << jobs;
                EXPECT_EQ(it->sim, f.sim) << f.id << " at jobs " << jobs;
            }
        }
    }
}

// No state outlives a report: the second build simulates everything
// again and must dump the same bytes.
TEST(DeterminismTest, BackToBackReportsAreIdentical)
{
    ParallelRunner runner(4);
    std::string first = buildReport(runner).dump(1);
    EXPECT_EQ(first, buildReport(runner).dump(1));
}

} // namespace
