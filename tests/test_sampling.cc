/**
 * @file
 * Tests for the periodic counter-sampling engine and its workload
 * wiring: off-by-default no-op behavior, ring-buffer drop semantics,
 * per-cell sample counts across the Table 7 grid, series JSON shape,
 * Perfetto counter tracks, byte-identical timeseries documents at any
 * job count, the kernel-window cycles-explained cross-check, and the
 * recorded bytes of the timeseries and kernel-window documents.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "arch/machines.hh"
#include "cpu/primitive_costs.hh"
#include "fnv1a.hh"
#include "sim/counters/counters.hh"
#include "sim/counters/reconcile.hh"
#include "sim/parallel/parallel_runner.hh"
#include "sim/sampling/sampler.hh"
#include "sim/trace.hh"
#include "study/counters_report.hh"
#include "study/timeseries_report.hh"
#include "workload/app_profile.hh"
#include "workload/os_model.hh"
#include "workload/ref_trace.hh"
#include "workload/synapse.hh"

using namespace aosd;

namespace
{

/** Restore global sampler/counter/tracer state around each test. */
class SamplingTest : public ::testing::Test
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
        HwCounters::instance().disable();
        HwCounters::instance().reset();
        Tracer::instance().disable();
        Tracer::instance().clear();
    }
};

/** A run's identity fields, for sampled-vs-unsampled comparisons. */
void
expectSameRow(const Table7Row &a, const Table7Row &b)
{
    EXPECT_EQ(a.app, b.app);
    EXPECT_DOUBLE_EQ(a.elapsedSeconds, b.elapsedSeconds);
    EXPECT_EQ(a.addressSpaceSwitches, b.addressSpaceSwitches);
    EXPECT_EQ(a.threadSwitches, b.threadSwitches);
    EXPECT_EQ(a.systemCalls, b.systemCalls);
    EXPECT_EQ(a.emulatedInstructions, b.emulatedInstructions);
    EXPECT_EQ(a.kernelTlbMisses, b.kernelTlbMisses);
    EXPECT_EQ(a.otherExceptions, b.otherExceptions);
    EXPECT_DOUBLE_EQ(a.percentTimeInPrimitives,
                     b.percentTimeInPrimitives);
}

TEST_F(SamplingTest, OffByDefaultAndTickIsANoOp)
{
    EXPECT_FALSE(samplingEnabled());
    CounterSampler &s = CounterSampler::instance();
    // A tick with no session open must not record anything.
    s.tick(1'000'000);
    EXPECT_FALSE(s.active());

    // A default config (interval 0) opens no session either.
    s.begin({});
    EXPECT_FALSE(s.active());
    s.tick(1'000'000);
    s.finish(2'000'000);
    EXPECT_TRUE(s.series().empty());
}

TEST_F(SamplingTest, SamplesAtIntervalBoundaries)
{
    HwCounters::instance().enable();
    CounterSampler &s = CounterSampler::instance();
    s.begin({100, 16});
    EXPECT_TRUE(s.active());
    for (Cycles now = 50; now <= 450; now += 50) {
        countEvent(HwCounter::TlbMisses);
        s.tick(now);
    }
    s.finish(460);
    EXPECT_FALSE(s.active());

    const CounterTimeSeries &ts = s.series();
    // Due at 100, 200, 300, 400, plus the closing sample at 460.
    ASSERT_EQ(ts.samples.size(), 5u);
    EXPECT_EQ(ts.samples.front().cycle, 100u);
    EXPECT_EQ(ts.samples.back().cycle, 460u);
    EXPECT_EQ(ts.dropped, 0u);
    for (std::size_t i = 1; i < ts.samples.size(); ++i)
        EXPECT_LT(ts.samples[i - 1].cycle, ts.samples[i].cycle);
    // Cumulative counters: the last sample saw every event.
    EXPECT_EQ(ts.samples.back().counters.get(HwCounter::TlbMisses),
              9u);
}

TEST_F(SamplingTest, RingDropsOldestWhenFull)
{
    HwCounters::instance().enable();
    CounterSampler &s = CounterSampler::instance();
    s.begin({10, 4});
    for (Cycles now = 10; now <= 100; now += 10)
        s.tick(now);
    s.finish(100);

    const CounterTimeSeries &ts = s.series();
    ASSERT_EQ(ts.samples.size(), 4u);
    EXPECT_EQ(ts.dropped, 6u);
    // The survivors are the newest samples, still oldest-first.
    EXPECT_EQ(ts.samples.front().cycle, 70u);
    EXPECT_EQ(ts.samples.back().cycle, 100u);
}

TEST_F(SamplingTest, OverflowSurfacesDroppedSamplesInJson)
{
    HwCounters::instance().enable();
    CounterSampler &s = CounterSampler::instance();
    // Capacity 4 with 10 due samples: the ring must overflow.
    s.begin({10, 4});
    for (Cycles now = 10; now <= 100; now += 10)
        s.tick(now);
    s.finish(100);

    Json j = s.series().toJson();
    ASSERT_TRUE(j.has("dropped_samples"));
    EXPECT_EQ(j.at("dropped_samples").asUint(), 6u);
    EXPECT_EQ(j.at("samples").asUint(), 4u);
}

TEST_F(SamplingTest, SeriesJsonShape)
{
    HwCounters::instance().enable();
    CounterSampler &s = CounterSampler::instance();
    s.begin({100, 16});
    for (Cycles now = 100; now <= 300; now += 100) {
        countEvent(HwCounter::TlbMisses, 5);
        countEvent(HwCounter::TlbRefillCycles, 60);
        s.tick(now, static_cast<double>(now) / 2);
    }
    s.finish(300);

    Json j = s.series().toJson();
    EXPECT_EQ(j.at("interval_cycles").asUint(), 100u);
    EXPECT_EQ(j.at("samples").asUint(), 3u);
    std::size_t n = j.at("cycles").size();
    EXPECT_EQ(n, 3u);
    const Json &series = j.at("series");
    ASSERT_TRUE(series.has("tlb_misses_per_kcycle"));
    ASSERT_TRUE(series.has("kernel_window_occupancy_pct"));
    for (const auto &kv : series.items())
        EXPECT_EQ(kv.second.size(), n) << kv.first;
    // 5 misses per 100 cycles = 50/kcycle; aux advances at 50%.
    EXPECT_DOUBLE_EQ(
        series.at("tlb_misses_per_kcycle").at(0).asNumber(), 50.0);
    EXPECT_DOUBLE_EQ(
        series.at("kernel_window_occupancy_pct").at(0).asNumber(),
        50.0);
}

TEST_F(SamplingTest, SamplingLeavesTable7RowUnchanged)
{
    MachineDesc machine = makeMachine(MachineId::R3000);
    AppProfile app = table7Workloads().front();

    MachSystem plain(machine, OsStructure::Monolithic);
    Table7Row base = plain.run(app);
    EXPECT_TRUE(base.timeseries.empty());

    OsModelConfig cfg;
    cfg.samplingIntervalCycles = 1'000'000;
    MachSystem sampled(machine, OsStructure::Monolithic, cfg);
    Table7Row row = sampled.run(app);

    expectSameRow(base, row);
    EXPECT_GE(row.timeseries.samples.size(), 10u);
}

// The report simulates the R3000 grid once, with the kernel window on,
// and reads Table 7 from it: that is exact only if the counter session
// never feeds back into the simulation, bit for bit.
TEST_F(SamplingTest, KernelWindowLeavesTable7GridUnchanged)
{
    // machStudy takes the machine from the cost db, the kernel-window
    // grid from makeMachine; both must be the same R3000.
    EXPECT_TRUE(sharedCostDb().machine(MachineId::R3000) ==
                makeMachine(MachineId::R3000));

    ParallelRunner runner(1);
    MachineDesc machine = makeMachine(MachineId::R3000);
    OsModelConfig cfg;
    cfg.measureKernelWindow = true;
    std::vector<Table7Row> plain = runMachGrid(machine, runner);
    std::vector<Table7Row> windowed = runMachGrid(machine, runner, cfg);

    ASSERT_EQ(plain.size(), 14u);
    ASSERT_EQ(windowed.size(), plain.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        const Table7Row &a = plain[i];
        const Table7Row &b = windowed[i];
        EXPECT_FALSE(a.hasKernelWindow);
        EXPECT_TRUE(b.hasKernelWindow);
        EXPECT_EQ(a.app, b.app);
        EXPECT_EQ(a.structure, b.structure) << a.app;
        EXPECT_EQ(a.elapsedSeconds, b.elapsedSeconds) << a.app;
        EXPECT_EQ(a.addressSpaceSwitches, b.addressSpaceSwitches)
            << a.app;
        EXPECT_EQ(a.threadSwitches, b.threadSwitches) << a.app;
        EXPECT_EQ(a.systemCalls, b.systemCalls) << a.app;
        EXPECT_EQ(a.emulatedInstructions, b.emulatedInstructions)
            << a.app;
        EXPECT_EQ(a.kernelTlbMisses, b.kernelTlbMisses) << a.app;
        EXPECT_EQ(a.otherExceptions, b.otherExceptions) << a.app;
        EXPECT_EQ(a.percentTimeInPrimitives, b.percentTimeInPrimitives)
            << a.app;
    }
}

TEST_F(SamplingTest, EveryTable7CellEmitsAtLeastTenSamples)
{
    OsModelConfig cfg;
    cfg.samplingIntervalCycles = 1'000'000;
    ParallelRunner runner(1);
    std::vector<Table7Row> rows =
        runMachGrid(makeMachine(MachineId::R3000), runner, cfg);
    ASSERT_FALSE(rows.empty());
    for (const Table7Row &r : rows) {
        EXPECT_GE(r.timeseries.samples.size(), 10u) << r.app;
        for (std::size_t i = 1; i < r.timeseries.samples.size(); ++i)
            EXPECT_LT(r.timeseries.samples[i - 1].cycle,
                      r.timeseries.samples[i].cycle)
                << r.app;
    }
}

TEST_F(SamplingTest, KernelWindowReconcilesAcrossTheGrid)
{
    OsModelConfig cfg;
    cfg.measureKernelWindow = true;
    ParallelRunner runner(1);
    for (MachineId m :
         {MachineId::R3000, MachineId::CVAX, MachineId::SPARC}) {
        std::vector<Table7Row> rows =
            runMachGrid(makeMachine(m), runner, cfg);
        for (const Table7Row &r : rows) {
            ASSERT_TRUE(r.hasKernelWindow) << r.app;
            EXPECT_GT(r.kernelWindow.actualCycles, 0u) << r.app;
            EXPECT_TRUE(r.kernelWindow.reconciles(5.0))
                << machineSlug(m) << "/" << r.app << ": "
                << r.kernelWindow.explainedPct() << "%";
        }
    }
}

TEST_F(SamplingTest, RefTraceSamples)
{
    RefTraceConfig cfg;
    cfg.references = 100'000;
    cfg.samplingIntervalCycles = 25'000;
    RefTraceResult r =
        runRefTrace(makeMachine(MachineId::R3000), cfg);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GE(r.timeseries.samples.size(), 10u);

    // Same replay without sampling: identical reference mix.
    RefTraceConfig plain;
    plain.references = 100'000;
    RefTraceResult b = runRefTrace(makeMachine(MachineId::R3000), plain);
    EXPECT_TRUE(b.timeseries.empty());
    EXPECT_EQ(b.cycles, r.cycles);
    EXPECT_DOUBLE_EQ(b.systemRefShare(), r.systemRefShare());
}

TEST_F(SamplingTest, SynapseRunSamples)
{
    MachineDesc machine = makeMachine(MachineId::SPARC);
    for (const SynapseRun &run : synapseExperiments()) {
        SynapseSimResult r = simulateSynapseRun(machine, run, 64);
        EXPECT_EQ(r.totalCycles, r.callCycles + r.switchCycles)
            << run.name;
        EXPECT_GE(r.timeseries.samples.size(), 10u) << run.name;
        EXPECT_LE(r.timeseries.samples.size(), 66u) << run.name;
    }
}

TEST_F(SamplingTest, PerfettoCounterTracks)
{
    Tracer::instance().enable(1 << 14);
    MachineDesc machine = makeMachine(MachineId::SPARC);
    SynapseSimResult r =
        simulateSynapseRun(machine, synapseExperiments().front(), 32);
    EXPECT_GE(r.timeseries.samples.size(), 10u);
    Tracer::instance().disable();

    Json doc =
        Json::parse(Tracer::instance().exportChromeTracing(), nullptr);
    const Json &events = doc.at("traceEvents");
    bool saw_counter_track = false;
    bool saw_occupancy = false;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const Json &ev = events.at(i);
        if (!ev.has("ph") || ev.at("ph").asString() != "C")
            continue;
        const std::string &name = ev.at("name").asString();
        if (name.rfind("ts/", 0) == 0)
            saw_counter_track = true;
        if (name == "ts/kernel_occupancy_pct")
            saw_occupancy = true;
    }
    EXPECT_TRUE(saw_counter_track);
    EXPECT_TRUE(saw_occupancy);
}

TEST_F(SamplingTest, TimeseriesDocIdenticalAcrossJobCounts)
{
    TimeseriesOptions opts;
    opts.refTraceReferences = 50'000;

    ParallelRunner serial(1);
    std::string one = buildTimeseriesDoc(serial, opts).dump(1);
    ParallelRunner wide(4);
    std::string four = buildTimeseriesDoc(wide, opts).dump(1);
    EXPECT_EQ(one, four);

    Json doc = Json::parse(one, nullptr);
    EXPECT_EQ(doc.at("schema_version").asUint(),
              static_cast<std::uint64_t>(timeseriesSchemaVersion));
    EXPECT_EQ(doc.at("table7").at("cells").size(), 14u);
}

// The two largest documents have no golden; their recorded digests pin
// every byte, number formatting included, which comparing two runs of
// the same build cannot.
TEST_F(SamplingTest, LargestDocsMatchRecordedDigests)
{
    std::ifstream in(std::string(AOSD_SOURCE_DIR) +
                     "/perfbench/digests.json");
    ASSERT_TRUE(in) << "cannot read perfbench/digests.json";
    std::ostringstream text;
    text << in.rdbuf();
    Json digests = Json::parse(text.str());
    ASSERT_TRUE(digests.isObject());

    ParallelRunner runner(4);
    EXPECT_EQ(fnv1a(buildTimeseriesDoc(runner).dump(1)),
              digests.at("timeseries").asString());
    EXPECT_EQ(fnv1a(buildKernelWindowsDoc(makeMachine(MachineId::R3000),
                                          runner)
                        .dump(1)),
              digests.at("kernel_windows").asString());
}

} // namespace
