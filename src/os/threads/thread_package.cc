#include "os/threads/thread_package.hh"

#include "sim/logging.hh"

namespace aosd
{

ThreadPackage::ThreadPackage(const MachineDesc &machine,
                             ThreadLevel level, ThreadCostOptions opts)
    : desc(machine), threadLevel(level),
      costModel(computeThreadCosts(machine, opts)),
      lockImpl(naturalLockImpl(machine)),
      lockCost(lockPairCycles(machine, lockImpl))
{}

ThreadPackage::ThreadId
ThreadPackage::create(std::vector<WorkSlice> slices)
{
    Thread t;
    t.id = static_cast<ThreadId>(threads.size());
    t.slices = std::move(slices);
    threads.push_back(std::move(t));
    runQueue.push_back(threads.back().id);

    ++tally.creates;
    Cycles c = threadLevel == ThreadLevel::User
                   ? costModel.userThreadCreate
                   : costModel.kernelThreadCreate;
    cycleCount += c;
    return threads.back().id;
}

void
ThreadPackage::chargeSwitch()
{
    ++tally.switches;
    Cycles c = threadLevel == ThreadLevel::User
                   ? costModel.userThreadSwitch
                   : costModel.kernelThreadSwitch;
    cycleCount += c;
}

void
ThreadPackage::runToCompletion()
{
    while (!runQueue.empty()) {
        ThreadId id = runQueue.front();
        runQueue.pop_front();
        Thread &t = threads[id];
        if (t.done())
            continue;

        if (lastRun != id && lastRun != UINT32_MAX)
            chargeSwitch();
        lastRun = id;

        // A lock held across the previous yield is dropped now.
        if (t.heldLock >= 0) {
            locks[static_cast<std::size_t>(t.heldLock)].release(id);
            t.heldLock = -1;
        }

        WorkSlice &slice = t.slices[t.next];
        if (slice.lockId >= 0) {
            auto idx = static_cast<std::size_t>(slice.lockId);
            if (idx >= locks.size())
                panic("slice references lock %d but only %zu exist",
                      slice.lockId, locks.size());
            if (!locks[idx].tryAcquire(id)) {
                // Contended: charge the failed probe and retry after
                // the holder has run.
                ++tally.lockContended;
                cycleCount += lockCost / 2;
                runQueue.push_back(id);
                continue;
            }
            ++tally.lockAcquires;
            cycleCount += lockCost;
        }

        cycleCount += slice.work;
        ++tally.slices;
        if (slice.lockId >= 0) {
            if (slice.holdAcrossYield && t.next + 1 < t.slices.size())
                t.heldLock = slice.lockId;
            else
                locks[static_cast<std::size_t>(slice.lockId)]
                    .release(id);
        }
        ++t.next;
        if (!t.done())
            runQueue.push_back(id);
    }
}

bool
ThreadPackage::allDone() const
{
    for (const auto &t : threads)
        if (!t.done())
            return false;
    return true;
}

double
ThreadPackage::elapsedMicros() const
{
    return desc.clock.cyclesToMicros(cycleCount);
}

} // namespace aosd
