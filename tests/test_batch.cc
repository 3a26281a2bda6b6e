/**
 * @file
 * Tests for SimKernel's closed-form charging of a run of n kernel
 * events: the central equivalence property — a run charged in closed
 * form leaves *exactly* the state of the same events charged one at a
 * time by the per-event body (cycles, every hardware counter, kernel
 * counts, the sampler series) on every Table 1
 * machine, under randomized event mixes — and the
 * CounterSampler::tickRun multi-interval regression (a run spanning
 * several sample intervals emits one sample per boundary crossed,
 * never one fat sample).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arch/machines.hh"
#include "os/kernel/kernel.hh"
#include "sim/counters/counters.hh"
#include "sim/random.hh"
#include "sim/sampling/sampler.hh"
#include "sim/trace.hh"
#include "workload/traffic.hh"

using namespace aosd;

namespace
{

/** Reset the instrumentation the charges feed. */
class BatchTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        HwCounters::instance().disable();
        HwCounters::instance().reset();
    }

    void
    TearDown() override
    {
        CounterSampler::instance().finish(0);
        SetUp();
    }
};

/** Everything a kernel event mutates, captured for comparison. */
struct RunState
{
    Cycles elapsed = 0;
    Cycles primitive = 0;
    CounterSet counters;
    SimKernel::Counts kernelCounts;
    std::string series;

    bool operator==(const RunState &) const = default;
};

/** The per-event reference for replayEventMix: the same seeded runs
 *  (length, then kind), each event one entry point call, plus the
 *  workload drivers' sampler tick after it when `sample_each` is set
 *  (the PTE change takes no sampler flag, so neither does its twin
 *  here). Run with the tracer armed, so every call takes the
 *  per-event body, not the closed form. */
void
replayEventMixPerEvent(SimKernel &kernel, AddressSpace &space,
                       std::uint64_t total_events, std::uint64_t seed,
                       bool sample_each)
{
    Rng rng(seed);
    std::uint64_t issued = 0;
    std::uint64_t cursor = 0;
    auto tick = [&] {
        if (sample_each)
            CounterSampler::instance().tick(
                kernel.elapsedCycles(),
                static_cast<double>(kernel.primitiveCycles()));
    };
    while (issued < total_events) {
        const std::uint64_t n = rng.between(1, 256);
        const std::uint64_t kind = rng.below(7);
        PageProt prot;
        prot.writable = ((cursor + n) & 1) != 0;
        for (std::uint64_t i = 0; i < n; ++i) {
            switch (kind) {
              case 0: kernel.syscall(); break;
              case 1: kernel.trap(); break;
              case 2: kernel.otherException(); break;
              case 3: kernel.threadSwitch(); break;
              case 4: kernel.emulateTestAndSet(); break;
              case 5: kernel.emulateInstructions(1); break;
              default:
                kernel.pteChange(space, 0x1000 + cursor++ % 64, prot);
                continue;
            }
            tick();
        }
        issued += n;
    }
}

/** Replay `total_events` of the randomized mix on `mid`, in closed
 *  form or one event at a time through the per-event body, and
 *  capture the complete observable state. `sample_each` adds
 *  per-event sampler boundaries under a 10k-cycle session. */
RunState
runMix(MachineId mid, bool batched, std::uint64_t total_events,
       std::uint64_t seed, bool sample_each = false)
{
    MachineDesc m = makeMachine(mid);
    SimKernel kernel(m);
    AddressSpace &space = kernel.createSpace("mix");
    space.mapRange(0x1000, 64, 0x50000, {});
    HwCounters::instance().enable();
    if (sample_each)
        CounterSampler::instance().begin({10'000, 4096});

    if (batched) {
        replayEventMix(kernel, &space, total_events, seed, sample_each);
    } else {
        // The tracer's records are not compared; arming it only
        // steers every call onto the per-event body.
        Tracer::instance().enable(1 << 10);
        EXPECT_FALSE(kernel.batchActive());
        replayEventMixPerEvent(kernel, space, total_events, seed,
                               sample_each);
        Tracer::instance().disable();
        Tracer::instance().clear();
    }

    RunState out;
    out.elapsed = kernel.elapsedCycles();
    out.primitive = kernel.primitiveCycles();
    out.counters = HwCounters::instance().snapshot();
    out.kernelCounts = kernel.counts();
    if (sample_each) {
        CounterSampler::instance().finish(
            kernel.elapsedCycles(),
            static_cast<double>(kernel.primitiveCycles()));
        out.series = CounterSampler::instance().series().toJson().dump();
    }
    HwCounters::instance().disable();
    HwCounters::instance().reset();
    return out;
}

TEST_F(BatchTest, BatchActiveOnlyWhileNoPerEventObserverWatches)
{
    MachineDesc m = makeMachine(MachineId::R3000);
    SimKernel kernel(m);
    EXPECT_TRUE(kernel.batchActive());
    Tracer::instance().enable(16);
    EXPECT_FALSE(kernel.batchActive());
    Tracer::instance().disable();
    Tracer::instance().clear();
    EXPECT_TRUE(kernel.batchActive());
}

// The central property: over randomized homogeneous-run mixes of
// every batchable primitive, the closed-form charges leave exactly
// the per-event loop's state on every Table 1 machine — total cycles,
// primitive cycles, all hardware counters and the kernel's counts.
TEST_F(BatchTest, BatchedStateEqualsPerEventOnEveryTable1Machine)
{
    for (const MachineDesc &m : table1Machines()) {
        for (std::uint64_t seed : {1ull, 42ull, 0xfeedull}) {
            RunState batched = runMix(m.id, true, 20'000, seed);
            RunState per_event = runMix(m.id, false, 20'000, seed);
            EXPECT_EQ(batched, per_event)
                << machineSlug(m.id) << " seed " << seed;
        }
    }
}

// Same property with per-event sampler boundaries: a batch spanning
// several 10k-cycle intervals must emit the same intermediate samples
// (cycle, aux, reconstructed counter snapshots) the per-event ticks
// would have taken.
TEST_F(BatchTest, BatchedSamplerSeriesEqualsPerEvent)
{
    RunState batched = runMix(MachineId::R3000, true, 30'000, 7, true);
    RunState per_event =
        runMix(MachineId::R3000, false, 30'000, 7, true);
    EXPECT_EQ(batched, per_event);
}

TEST_F(BatchTest, ZeroCountBatchesAreNoOps)
{
    MachineDesc m = makeMachine(MachineId::R3000);
    // Closed form, then the per-event body (tracer armed).
    for (bool traced : {false, true}) {
        SCOPED_TRACE(traced ? "per-event" : "closed form");
        SimKernel kernel(m);
        AddressSpace &space = kernel.createSpace("app");
        HwCounters::instance().enable();
        if (traced)
            Tracer::instance().enable(16);
        kernel.syscall(0);
        kernel.trap(0);
        kernel.otherException(0);
        kernel.threadSwitch(0);
        kernel.emulateTestAndSet(0);
        kernel.emulateSingleInstructions(0);
        kernel.pteChange(space, std::vector<Vpn>{}, {});
        EXPECT_EQ(kernel.elapsedCycles(), 0u);
        EXPECT_EQ(kernel.counts(), SimKernel::Counts{});
        EXPECT_EQ(HwCounters::instance().snapshot().totalEvents(), 0u);
        if (traced) {
            EXPECT_EQ(Tracer::instance().size(), 0u);
        }
        Tracer::instance().disable();
        Tracer::instance().clear();
        SetUp();
    }
}

// ---- CounterSampler::tickRun ------------------------------------

/** Per-event reference for tickRun: bump + tick once per event. */
CounterTimeSeries
perEventSeries(Cycles interval, Cycles per_event, std::uint64_t n,
               std::uint64_t aux_per_event)
{
    HwCounters::instance().enable();
    CounterSampler &s = CounterSampler::instance();
    s.begin({interval, 4096});
    for (std::uint64_t i = 1; i <= n; ++i) {
        countEvent(HwCounter::KernelTraps);
        s.tick(per_event * i,
               static_cast<double>(aux_per_event * i));
    }
    s.finish(per_event * n,
             static_cast<double>(aux_per_event * n));
    CounterTimeSeries out = s.series();
    HwCounters::instance().disable();
    HwCounters::instance().reset();
    return out;
}

/** Batched equivalent: all counter bumps land first, then one
 *  tickRun reconstructs the intermediate snapshots. */
CounterTimeSeries
tickRunSeries(Cycles interval, Cycles per_event, std::uint64_t n,
              std::uint64_t aux_per_event)
{
    HwCounters::instance().enable();
    CounterSampler &s = CounterSampler::instance();
    s.begin({interval, 4096});
    countEvent(HwCounter::KernelTraps, n);
    CounterSet per;
    per.set(HwCounter::KernelTraps, 1);
    s.tickRun(0, per_event, n, per, 0, aux_per_event);
    s.finish(per_event * n,
             static_cast<double>(aux_per_event * n));
    CounterTimeSeries out = s.series();
    HwCounters::instance().disable();
    HwCounters::instance().reset();
    return out;
}

TEST_F(BatchTest, TickRunEmitsOneSamplePerCrossedBoundary)
{
    // 10 events x 37 cycles crossing the 100-cycle boundary three
    // times: per-event ticks sample at 111, 222 and 333 (the first
    // tick at or past each boundary), then the close at 370.
    CounterTimeSeries ts = tickRunSeries(100, 37, 10, 37);
    ASSERT_EQ(ts.samples.size(), 4u);
    EXPECT_EQ(ts.samples[0].cycle, 111u);
    EXPECT_EQ(ts.samples[1].cycle, 222u);
    EXPECT_EQ(ts.samples[2].cycle, 333u);
    EXPECT_EQ(ts.samples[3].cycle, 370u);
    // Intermediate snapshots roll the counter file back: 3 events by
    // cycle 111, 6 by 222, 9 by 333, all 10 at the close.
    EXPECT_EQ(ts.samples[0].counters.get(HwCounter::KernelTraps), 3u);
    EXPECT_EQ(ts.samples[1].counters.get(HwCounter::KernelTraps), 6u);
    EXPECT_EQ(ts.samples[2].counters.get(HwCounter::KernelTraps), 9u);
    EXPECT_EQ(ts.samples[3].counters.get(HwCounter::KernelTraps), 10u);
    EXPECT_EQ(ts.samples[1].aux, 222.0);
}

TEST_F(BatchTest, TickRunMatchesPerEventLoopExactly)
{
    struct Case
    {
        Cycles interval, per_event;
        std::uint64_t n, aux;
    };
    // Spans many intervals; lands exactly on boundaries; run shorter
    // than one interval; single event; zero-cost events.
    const Case cases[] = {
        {100, 37, 10, 37},   {100, 50, 8, 13}, {1000, 37, 10, 37},
        {100, 100, 5, 100},  {100, 250, 4, 1}, {7, 3, 100, 3},
        {100, 37, 1, 37},    {100, 0, 5, 9},
    };
    for (const Case &c : cases) {
        CounterTimeSeries a =
            perEventSeries(c.interval, c.per_event, c.n, c.aux);
        CounterTimeSeries b =
            tickRunSeries(c.interval, c.per_event, c.n, c.aux);
        EXPECT_EQ(a.toJson().dump(), b.toJson().dump())
            << "interval " << c.interval << " per_event "
            << c.per_event << " n " << c.n;
    }
}

TEST_F(BatchTest, TickRunWithoutSessionIsANoOp)
{
    CounterSampler &s = CounterSampler::instance();
    CounterSet per;
    per.set(HwCounter::KernelTraps, 1);
    s.tickRun(0, 100, 50, per, 0, 100);
    EXPECT_TRUE(s.series().empty());
}

} // namespace
