#include "sim/parallel/parallel_runner.hh"

#include <thread>

namespace aosd
{

ParallelRunner::ParallelRunner(unsigned jobs)
    : jobCount(jobs == 0 ? defaultJobs() : jobs)
{
}

ParallelRunner::~ParallelRunner() = default;

unsigned
ParallelRunner::defaultJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

ThreadPool &
ParallelRunner::pool()
{
    if (!workers)
        workers = std::make_unique<ThreadPool>(jobCount);
    return *workers;
}

void
ParallelRunner::runIndexed(std::size_t n,
                           const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;

    if (jobCount == 1) {
        // The serial escape hatch: inline on the calling thread.
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    pool().forEachIndex(n, fn);
}

} // namespace aosd
