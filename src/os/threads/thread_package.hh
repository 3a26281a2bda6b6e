/**
 * @file
 * A functional thread package with cost accounting (§4).
 *
 * Threads are sequences of work slices, optionally guarded by locks;
 * the package runs them round-robin, charging the machine's simulated
 * thread-operation costs (user-level or kernel-level) for every create,
 * switch and lock operation. The same workload can therefore be run at
 * both levels on every machine, which is exactly the comparison §4
 * makes: fine-grained parallelism is only as cheap as the architecture
 * lets thread operations be.
 */

#ifndef AOSD_OS_THREADS_THREAD_PACKAGE_HH
#define AOSD_OS_THREADS_THREAD_PACKAGE_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "arch/machine_desc.hh"
#include "os/threads/sync.hh"
#include "os/threads/thread.hh"

namespace aosd
{

/** Where thread management lives. */
enum class ThreadLevel
{
    User,   ///< run-time package, invisible to the kernel
    Kernel, ///< every operation crosses the kernel boundary
};

/** One schedulable unit of work. */
struct WorkSlice
{
    /** Computation cycles this slice performs. */
    Cycles work = 0;
    /** Lock to hold while performing it (-1 = none). */
    int lockId = -1;
    /** Keep the lock across the following yield; it is released when
     *  this thread is next scheduled (lets contention actually occur
     *  under round-robin scheduling). */
    bool holdAcrossYield = false;
};

/** Round-robin thread system for one machine. */
class ThreadPackage
{
  public:
    using ThreadId = std::uint32_t;

    struct Counts
    {
        std::uint64_t creates = 0;
        std::uint64_t switches = 0;
        std::uint64_t slices = 0;
        std::uint64_t lockAcquires = 0;
        std::uint64_t lockContended = 0;
    };

    ThreadPackage(const MachineDesc &machine, ThreadLevel level,
                  ThreadCostOptions opts = {});

    /** Create a thread that will execute `slices` in order. */
    ThreadId create(std::vector<WorkSlice> slices);

    /** Number of locks available to slices. */
    void setLockCount(std::size_t n) { locks.assign(n, {}); }

    /** Run until every thread finishes. */
    void runToCompletion();

    /** True once all created threads have finished. */
    bool allDone() const;

    Cycles elapsedCycles() const { return cycleCount; }
    double elapsedMicros() const;

    const Counts &counts() const { return tally; }
    const ThreadCosts &costs() const { return costModel; }
    ThreadLevel level() const { return threadLevel; }

  private:
    struct Thread
    {
        ThreadId id = 0;
        std::vector<WorkSlice> slices;
        std::size_t next = 0;
        int heldLock = -1;
        bool done() const { return next >= slices.size(); }
    };

    void chargeSwitch();

    MachineDesc desc;
    ThreadLevel threadLevel;
    ThreadCosts costModel;
    LockImpl lockImpl;
    Cycles lockCost = 0;

    std::vector<Thread> threads;
    std::deque<ThreadId> runQueue;
    std::vector<TestAndSetLock> locks;
    ThreadId lastRun = UINT32_MAX;
    Cycles cycleCount = 0;
    Counts tally;
};

} // namespace aosd

#endif // AOSD_OS_THREADS_THREAD_PACKAGE_HH
