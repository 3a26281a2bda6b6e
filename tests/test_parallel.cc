/**
 * @file
 * Tests for the parallel simulation runner: thread-pool batch
 * semantics (full index coverage, index-addressed results, exception
 * propagation) and the headline determinism contract: report.json,
 * counters.json and profile.json are byte-identical between --jobs 1
 * and --jobs N.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "arch/machines.hh"
#include "sim/parallel/parallel_runner.hh"
#include "sim/parallel/thread_pool.hh"
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
