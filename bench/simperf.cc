/**
 * @file
 * P1: google-benchmark micro-benchmarks of the simulator's own hot
 * paths (handler execution, TLB lookups, workload runs), so simulator
 * performance regressions are visible.
 */

#include <benchmark/benchmark.h>

#include "core/aosd.hh"
#include "sim/counters/counters.hh"
#include "sim/parallel/parallel_runner.hh"
#include "sim/spantrace/spantrace.hh"
#include "study/dashboard/dashboard.hh"
#include "study/report.hh"
#include "workload/traffic.hh"

using namespace aosd;

namespace
{

void
BM_HandlerExecution(benchmark::State &state)
{
    MachineDesc m = makeMachine(
        static_cast<MachineId>(state.range(0)));
    HandlerProgram prog = buildHandler(m, Primitive::Trap);
    ExecModel exec(m);
    for (auto _ : state) {
        ExecResult r = exec.run(prog);
        benchmark::DoNotOptimize(r.cycles);
        exec.reset();
    }
}
BENCHMARK(BM_HandlerExecution)
    ->Arg(static_cast<int>(MachineId::CVAX))
    ->Arg(static_cast<int>(MachineId::R3000))
    ->Arg(static_cast<int>(MachineId::SPARC));

void
BM_HandlerExecutionProfiled(benchmark::State &state)
{
    // Same work as BM_HandlerExecution on the R3000, but with cycle
    // attribution on: the delta between the two is the profiler's
    // enabled cost. The hooks are always compiled in, so
    // BM_HandlerExecution itself includes their disabled cost.
    MachineDesc m = makeMachine(MachineId::R3000);
    HandlerProgram prog = buildHandler(m, Primitive::Trap);
    ExecModel exec(m);
    Profiler::instance().enable();
    for (auto _ : state) {
        ExecResult r = exec.run(prog);
        benchmark::DoNotOptimize(r.cycles);
        exec.reset();
    }
    Profiler::instance().disable();
    Profiler::instance().clear();
}
BENCHMARK(BM_HandlerExecutionProfiled);

void
BM_HandlerExecutionCounted(benchmark::State &state)
{
    // Same work again with the hardware counters on: the delta from
    // BM_HandlerExecution is the counters' enabled cost; the disabled
    // cost is inside BM_HandlerExecution itself.
    MachineDesc m = makeMachine(MachineId::R3000);
    HandlerProgram prog = buildHandler(m, Primitive::Trap);
    ExecModel exec(m);
    HwCounters::instance().enable();
    for (auto _ : state) {
        ExecResult r = exec.run(prog);
        benchmark::DoNotOptimize(r.cycles);
        exec.reset();
    }
    HwCounters::instance().disable();
    HwCounters::instance().reset();
}
BENCHMARK(BM_HandlerExecutionCounted);

void
BM_HandlerExecutionTraced(benchmark::State &state)
{
    // Same work again with the tracer on: the delta from
    // BM_HandlerExecution is the tracer's enabled cost. With it off,
    // every trace site in the exec/mem hot paths is a single
    // observer-mask test (sim/observers.hh), so BM_HandlerExecution
    // itself is the disabled cost.
    MachineDesc m = makeMachine(MachineId::R3000);
    HandlerProgram prog = buildHandler(m, Primitive::Trap);
    ExecModel exec(m);
    Tracer::instance().enable(1 << 16);
    for (auto _ : state) {
        ExecResult r = exec.run(prog);
        benchmark::DoNotOptimize(r.cycles);
        exec.reset();
    }
    Tracer::instance().disable();
    Tracer::instance().clear();
}
BENCHMARK(BM_HandlerExecutionTraced);

void
BM_PrimitiveSpanTraced(benchmark::State &state)
{
    // A full span-traced request around one kernel primitive: the
    // begin/end bookkeeping, the RAII scope inside syscall() and the
    // per-phase leaves. With spantrace off, every hook is a single
    // observer-mask test (sim/observers.hh), and that disabled cost is
    // inside the plain kernel benchmarks.
    MachineDesc m = makeMachine(MachineId::R3000);
    SimKernel kernel(m);
    AddressSpace &app = kernel.createSpace("app");
    kernel.contextSwitchTo(app);
    HwCounters::instance().enable();
    // Small capacity: steady state exercises the drop path too, so
    // memory stays bounded however long the benchmark runs.
    SpanTracer::instance().enable(64);
    std::uint64_t id = 0;
    for (auto _ : state) {
        SpanTracer::instance().beginRequest("null_syscall", id++,
                                            kernel.elapsedCycles());
        kernel.syscall();
        SpanTracer::instance().endRequest(kernel.elapsedCycles());
    }
    SpanTracer::instance().take();
    HwCounters::instance().disable();
    HwCounters::instance().reset();
}
BENCHMARK(BM_PrimitiveSpanTraced);

/** One Tlb::touch() per iteration, the Table-7 page-touch path, on
 *  the R3000's TLB over a seeded (vpn, asid) stream drawn from
 *  range(0) distinct keys. 48 keys fit the 64 entries, so after the
 *  warm-up every touch hits; 512 keys overflow it, so most touches
 *  miss and refill through the callback. */
void
BM_TlbTouch(benchmark::State &state)
{
    Tlb tlb(sharedCostDb().machine(MachineId::R3000).tlb);
    const auto keys = static_cast<std::uint64_t>(state.range(0));
    Rng rng(7);
    std::vector<std::pair<Vpn, Asid>> stream(4096);
    for (auto &[vpn, asid] : stream) {
        const std::uint64_t k = rng.below(keys);
        vpn = 0x1000 + k / 4;
        asid = static_cast<Asid>(1 + k % 4);
    }
    auto fill = [](Cycles) { return TlbFill{}; };
    for (const auto &[vpn, asid] : stream)
        tlb.touch(vpn, asid, false, fill);
    std::uint64_t misses = 0;
    std::size_t i = 0;
    for (auto _ : state) {
        const auto &[vpn, asid] = stream[i];
        const bool hit = tlb.touch(vpn, asid, false, fill);
        benchmark::DoNotOptimize(hit);
        misses += !hit;
        i = (i + 1) % stream.size();
    }
    state.counters["miss_ratio"] = benchmark::Counter(
        static_cast<double>(misses), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_TlbTouch)->Arg(48)->Arg(512);

void
BM_PageTableWalk(benchmark::State &state)
{
    auto table = state.range(0) == 0 ? makeLinearPageTable(1 << 20)
                 : state.range(0) == 1 ? makeMultiLevelPageTable()
                                       : makeHashedPageTable(1024);
    for (Vpn v = 0; v < 4096; ++v)
        table->map(v, Pte{v, {}, false, false, false});
    Vpn v = 0;
    for (auto _ : state) {
        WalkResult r = table->walk(v);
        benchmark::DoNotOptimize(r.pte);
        v = (v + 1) % 4096;
    }
}
BENCHMARK(BM_PageTableWalk)->Arg(0)->Arg(1)->Arg(2);

void
BM_LrpcSimulation(benchmark::State &state)
{
    const MachineDesc &m = sharedCostDb().machine(MachineId::CVAX);
    for (auto _ : state) {
        LrpcModel model(m);
        LrpcBreakdown b = model.nullCall();
        benchmark::DoNotOptimize(b.totalUs());
    }
}
BENCHMARK(BM_LrpcSimulation);

void
BM_WorkloadRun(benchmark::State &state)
{
    const MachineDesc &m = sharedCostDb().machine(MachineId::R3000);
    AppProfile app = workloadByName("spellcheck-1");
    for (auto _ : state) {
        MachSystem sys(m, OsStructure::SmallKernel);
        Table7Row row = sys.run(app);
        benchmark::DoNotOptimize(row.kernelTlbMisses);
    }
}
BENCHMARK(BM_WorkloadRun);

void
BM_WorkloadRunSampled(benchmark::State &state)
{
    // BM_WorkloadRun with the periodic counter sampler on: the delta
    // against BM_WorkloadRun is the enabled sampling cost; the
    // disabled-but-compiled-in cost is inside BM_WorkloadRun itself.
    const MachineDesc &m = sharedCostDb().machine(MachineId::R3000);
    AppProfile app = workloadByName("spellcheck-1");
    OsModelConfig cfg;
    cfg.samplingIntervalCycles = 1'000'000;
    for (auto _ : state) {
        MachSystem sys(m, OsStructure::SmallKernel, cfg);
        Table7Row row = sys.run(app);
        benchmark::DoNotOptimize(row.timeseries.samples.size());
    }
}
BENCHMARK(BM_WorkloadRunSampled);

/** replayEventMix one event at a time: the same seeded runs
 *  (length, then kind), one kernel entry point call per event. */
std::uint64_t
replayEventMixPerEvent(SimKernel &kernel, AddressSpace &space,
                       std::uint64_t total_events, std::uint64_t seed)
{
    Rng rng(seed);
    std::uint64_t issued = 0;
    std::uint64_t cursor = 0;
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
            }
        }
        issued += n;
    }
    return issued;
}

/** Shared body of the kernel-window charging benchmarks: a seeded
 *  randomized stream of homogeneous event runs against one R3000
 *  kernel with the counters on. `batched` replays it one entry point
 *  call per run in closed form (replayEventMix). Otherwise it makes
 *  one call per event with the tracer armed, so every call takes the
 *  per-event body, as a traced run or an open span does (untraced, a
 *  one-event call is the closed form at n = 1). The two leave
 *  byte-identical counts and cycles, so the events/sec ratio is what
 *  the closed form wins over the per-event body (CI gates it >= 5x). */
void
kernelWindowChargingBody(benchmark::State &state, bool batched)
{
    MachineDesc m = makeMachine(MachineId::R3000);
    SimKernel kernel(m);
    AddressSpace &space = kernel.createSpace("mix");
    space.mapRange(0x1000, 64, 0x50000, {});
    HwCounters::instance().enable();
    if (!batched)
        Tracer::instance().enable(1 << 10);
    constexpr std::uint64_t eventsPerIter = 100'000;
    std::uint64_t seed = 1;
    std::uint64_t events = 0;
    for (auto _ : state)
        events += batched ? replayEventMix(kernel, &space,
                                           eventsPerIter, seed++)
                          : replayEventMixPerEvent(kernel, space,
                                                   eventsPerIter,
                                                   seed++);
    Tracer::instance().disable();
    Tracer::instance().clear();
    HwCounters::instance().disable();
    HwCounters::instance().reset();
    state.counters["events_per_sec"] = benchmark::Counter(
        static_cast<double>(events), benchmark::Counter::kIsRate);
}

void
BM_KernelWindowBatched(benchmark::State &state)
{
    kernelWindowChargingBody(state, true);
}
BENCHMARK(BM_KernelWindowBatched);

void
BM_KernelWindowPerEvent(benchmark::State &state)
{
    kernelWindowChargingBody(state, false);
}
BENCHMARK(BM_KernelWindowPerEvent);

void
BM_TrafficRun(benchmark::State &state)
{
    // One serial traffic sweep — 10k requests per load level on the
    // R3000 across the default four levels — the unit of work the
    // million-request aosd_traffic sweeps scale up.
    TrafficConfig cfg;
    cfg.requestsPerLevel = 10'000;
    cfg.machines = {MachineId::R3000};
    for (auto _ : state) {
        ParallelRunner serial(1);
        Json doc = buildTrafficDoc(cfg, serial);
        benchmark::DoNotOptimize(doc.size());
    }
}
BENCHMARK(BM_TrafficRun)->Unit(benchmark::kMillisecond);

void
BM_CopyModel(benchmark::State &state)
{
    const MachineDesc &m = sharedCostDb().machine(MachineId::R3000);
    for (auto _ : state) {
        Cycles c = copyCycles(m, 4096);
        benchmark::DoNotOptimize(c);
    }
}
BENCHMARK(BM_CopyModel);

void
BM_ReportFull(benchmark::State &state)
{
    // The whole figure grid, serial: the --jobs 1 wall-clock baseline
    // that CI's BENCH_report.json speedup column divides by.
    for (auto _ : state) {
        ParallelRunner serial(1);
        Json report = buildReport(serial);
        benchmark::DoNotOptimize(report.size());
    }
}
BENCHMARK(BM_ReportFull)->Unit(benchmark::kMillisecond)->UseRealTime();

void
BM_ReportParallel(benchmark::State &state)
{
    // The same grid fanned over N workers; real time, because the
    // point is wall-clock speedup (CPU time only goes up with
    // threads). The output is byte-identical to BM_ReportFull's.
    for (auto _ : state) {
        ParallelRunner runner(
            static_cast<unsigned>(state.range(0)));
        Json report = buildReport(runner);
        benchmark::DoNotOptimize(report.size());
    }
}
BENCHMARK(BM_ReportParallel)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void
BM_DashboardRender(benchmark::State &state)
{
    // Render-only cost of the unified observability site: the input
    // documents are built once outside the loop, so the figure
    // tracks HTML/SVG generation, not simulation.
    static const Json report = [] {
        ParallelRunner serial(1);
        return buildReport(serial);
    }();
    static const Json traffic = [] {
        TrafficConfig cfg;
        cfg.requestsPerLevel = 2'000;
        cfg.machines = {MachineId::R3000};
        ParallelRunner serial(1);
        return buildTrafficDoc(cfg, serial);
    }();
    DashboardInputs in;
    in.report = &report;
    in.traffic = {&traffic};
    for (auto _ : state) {
        ParallelRunner serial(1);
        DashboardSite site =
            buildDashboardSite(in, DashboardOptions{}, serial);
        benchmark::DoNotOptimize(site.pages.back().html.size());
    }
}
BENCHMARK(BM_DashboardRender)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
