#include "os/kernel/scheduler.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace aosd
{

Scheduler::ThreadId
Scheduler::spawn(const std::string &name, AddressSpace &space,
                 ThreadBody body, int priority)
{
    Thread t;
    t.id = static_cast<ThreadId>(threads.size());
    t.name = name;
    t.space = &space;
    t.body = std::move(body);
    t.priority = priority;
    threads.push_back(std::move(t));
    readyQueue.push_back(threads.back().id);
    return threads.back().id;
}

void
Scheduler::wake(ThreadId id)
{
    if (id >= threads.size())
        panic("wake of unknown thread %u", id);
    Thread &t = threads[id];
    if (t.state != ThreadRunState::Blocked)
        return;
    t.state = ThreadRunState::Ready;
    readyQueue.push_back(id);
    ++tally.wakeups;
}

Scheduler::Thread *
Scheduler::pickNext()
{
    // Highest priority among ready threads; FIFO within a priority.
    Thread *best = nullptr;
    std::size_t best_pos = 0;
    for (std::size_t i = 0; i < readyQueue.size(); ++i) {
        Thread &t = threads[readyQueue[i]];
        if (t.state != ThreadRunState::Ready)
            continue;
        if (!best || t.priority > best->priority) {
            best = &t;
            best_pos = i;
        }
    }
    if (best)
        readyQueue.erase(readyQueue.begin() +
                         static_cast<std::ptrdiff_t>(best_pos));
    return best;
}

std::uint64_t
Scheduler::run(std::uint64_t max_dispatches)
{
    std::uint64_t dispatches = 0;
    while (dispatches < max_dispatches) {
        Thread *t = pickNext();
        if (!t)
            break;

        // Crossing into another address space pays the full switch;
        // re-dispatching the same space is a thread switch only.
        if (&sim.currentSpace() != t->space)
            sim.contextSwitchTo(*t->space);
        else if (lastDispatched != t->id &&
                 lastDispatched != UINT32_MAX)
            sim.threadSwitch();
        lastDispatched = t->id;

        t->state = ThreadRunState::Running;
        ++tally.dispatches;
        ++dispatches;

        ThreadRunState next = t->body();
        t->state = next;
        switch (next) {
          case ThreadRunState::Ready:
            readyQueue.push_back(t->id);
            break;
          case ThreadRunState::Blocked:
          case ThreadRunState::Finished:
            break;
          case ThreadRunState::Running:
            panic("thread body returned Running");
        }
    }
    return dispatches;
}

ThreadRunState
Scheduler::state(ThreadId id) const
{
    if (id >= threads.size())
        panic("state of unknown thread %u", id);
    return threads[id].state;
}

std::size_t
Scheduler::readyCount() const
{
    std::size_t n = 0;
    for (const auto &t : threads)
        n += t.state == ThreadRunState::Ready;
    return n;
}

std::size_t
Scheduler::finishedCount() const
{
    std::size_t n = 0;
    for (const auto &t : threads)
        n += t.state == ThreadRunState::Finished;
    return n;
}

} // namespace aosd
