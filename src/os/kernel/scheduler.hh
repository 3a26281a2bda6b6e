/**
 * @file
 * Kernel thread scheduler.
 *
 * A small priority + round-robin scheduler over SimKernel address
 * spaces: threads block on events (I/O, message arrival) and are woken
 * by them; every dispatch that crosses an address space pays the
 * machine's context-switch primitive through the kernel. The RPC
 * server example and the kernelized-OS discussions (§2, §5) use it to
 * model "wake the server thread, run it, block again" sequences.
 */

#ifndef AOSD_OS_KERNEL_SCHEDULER_HH
#define AOSD_OS_KERNEL_SCHEDULER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "os/kernel/kernel.hh"

namespace aosd
{

/** Scheduler-visible thread states. */
enum class ThreadRunState
{
    Ready,
    Running,
    Blocked,
    Finished,
};

/**
 * A schedulable kernel thread: a callback invoked each time the
 * thread is dispatched. The callback returns the thread's next state
 * (Blocked to wait for a wakeup, Ready to yield, Finished to exit).
 */
class Scheduler
{
  public:
    using ThreadId = std::uint32_t;
    using ThreadBody = std::function<ThreadRunState()>;

    struct Counts
    {
        std::uint64_t dispatches = 0;
        std::uint64_t wakeups = 0;
    };

    explicit Scheduler(SimKernel &kernel) : sim(kernel) {}

    /** Create a thread bound to an address space. Higher priority
     *  runs first; equal priorities round-robin. */
    ThreadId spawn(const std::string &name, AddressSpace &space,
                   ThreadBody body, int priority = 0);

    /** Wake a blocked thread (no-op in other states). */
    void wake(ThreadId id);

    /** Dispatch ready threads until none are runnable or the step
     *  limit is hit. Returns the number of dispatches. */
    std::uint64_t run(std::uint64_t max_dispatches = UINT64_MAX);

    ThreadRunState state(ThreadId id) const;
    std::size_t readyCount() const;

    /** Threads that have finished. */
    std::size_t finishedCount() const;

    const Counts &counts() const { return tally; }

  private:
    struct Thread
    {
        ThreadId id;
        std::string name;
        AddressSpace *space;
        ThreadBody body;
        int priority;
        ThreadRunState state = ThreadRunState::Ready;
    };

    Thread *pickNext();

    SimKernel &sim;
    std::vector<Thread> threads;
    std::deque<ThreadId> readyQueue;
    ThreadId lastDispatched = UINT32_MAX;
    Counts tally;
};

} // namespace aosd

#endif // AOSD_OS_KERNEL_SCHEDULER_HH
