/**
 * @file
 * ParallelRunner — deterministic fan-out for the simulation grids.
 *
 * The report run is an embarrassingly parallel grid of independent
 * simulations: (machine × primitive) counter sessions, (table ×
 * ablation) cells, (app × OS structure) Table 7 replays. Each cell
 * builds its own models, enables its own instrumentation session, and
 * returns a value — nothing couples two cells except the singletons,
 * and those are thread-local (the tracer, profiler and counter file
 * each keep one instance per worker thread). The
 * runner fans a vector of such cells across a fixed-size ThreadPool
 * and hands back the results **in task-index order**: workers decide
 * when a task runs, never where its result goes, so the output is
 * bit-for-bit identical to the serial loop no matter how the OS
 * schedules the workers.
 *
 * Determinism contract (what makes --jobs 8 byte-identical to
 * --jobs 1):
 *   - each task writes only its own index-addressed result slot;
 *   - results are merged by ascending task index, never completion
 *     order;
 *   - tasks open their own instrumentation sessions (enable() resets)
 *     and seed their own Rngs, so a cell's value cannot depend on
 *     which worker ran it or what ran before it;
 *   - jobs == 1 runs every task inline on the calling thread with no
 *     pool.
 *
 * Exception semantics match the serial loop as well: the failure with
 * the lowest task index is rethrown on the submitting thread.
 */

#ifndef AOSD_SIM_PARALLEL_PARALLEL_RUNNER_HH
#define AOSD_SIM_PARALLEL_PARALLEL_RUNNER_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "sim/parallel/thread_pool.hh"

namespace aosd
{

/** Fans index-addressed simulation tasks across a worker pool. */
class ParallelRunner
{
  public:
    /** `jobs` == 0 picks defaultJobs(). `jobs` == 1 is the serial
     *  escape hatch: tasks run inline on the calling thread. */
    explicit ParallelRunner(unsigned jobs = 0);

    ~ParallelRunner();

    ParallelRunner(const ParallelRunner &) = delete;
    ParallelRunner &operator=(const ParallelRunner &) = delete;

    /** max(1, std::thread::hardware_concurrency()). */
    static unsigned defaultJobs();

    unsigned jobs() const { return jobCount; }

    /** Run every task, return results by task index. */
    template <typename R>
    std::vector<R>
    map(const std::vector<std::function<R()>> &tasks)
    {
        std::vector<R> results(tasks.size());
        runIndexed(tasks.size(), [&](std::size_t i) {
            results[i] = tasks[i]();
        });
        return results;
    }

    /** Run every task (no results to collect). */
    void
    run(const std::vector<std::function<void()>> &tasks)
    {
        runIndexed(tasks.size(),
                   [&](std::size_t i) { tasks[i](); });
    }

  private:
    /** Dispatch fn(0..n-1) serially (jobs == 1) or across the pool. */
    void runIndexed(std::size_t n,
                    const std::function<void(std::size_t)> &fn);

    ThreadPool &pool();

    unsigned jobCount;
    std::unique_ptr<ThreadPool> workers; ///< lazy; never for jobs==1
};

} // namespace aosd

#endif // AOSD_SIM_PARALLEL_PARALLEL_RUNNER_HH
