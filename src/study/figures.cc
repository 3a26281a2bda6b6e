#include "study/figures.hh"

#include <functional>
#include <utility>

#include "arch/machines.hh"
#include "core/study.hh"
#include "cpu/counted_primitives.hh"
#include "cpu/handler_variants.hh"
#include "cpu/handlers.hh"
#include "cpu/primitive_costs.hh"
#include "os/ipc/lrpc.hh"
#include "os/ipc/rpc.hh"
#include "os/kernel/kernel.hh"
#include "sim/parallel/parallel_runner.hh"
#include "workload/app_profile.hh"
#include "workload/os_model.hh"

namespace aosd
{

namespace
{

Figure
fig(std::string table, std::string id, std::string unit, double sim,
    double paper = std::nan(""))
{
    Figure f;
    f.table = std::move(table);
    f.id = std::move(id);
    f.unit = std::move(unit);
    f.sim = sim;
    f.paper = paper;
    return f;
}

} // namespace

std::vector<Figure>
table1Figures()
{
    ParallelRunner serial(1);
    return table1Figures(serial);
}

std::vector<Figure>
table1Figures(ParallelRunner & /* cells are cheap db reads */)
{
    const MachineId machines[] = {MachineId::CVAX, MachineId::M88000,
                                  MachineId::R2000, MachineId::R3000,
                                  MachineId::SPARC};
    const PrimitiveCostDb &db = sharedCostDb();
    std::vector<Figure> out;
    for (Primitive p : allPrimitives) {
        for (MachineId m : machines) {
            double paper = PaperPrimitiveData::microseconds(m, p);
            out.push_back(fig(
                "table1",
                std::string(primitiveSlug(p)) + "_us." +
                    machineSlug(m),
                "us", db.micros(m, p),
                paper < 0 ? std::nan("") : paper));
        }
    }
    // The bottom row: application performance relative to the CVAX.
    for (MachineId m : {MachineId::M88000, MachineId::R2000,
                        MachineId::R3000, MachineId::SPARC}) {
        out.push_back(fig("table1",
                          std::string("app_perf_vs_cvax.") +
                              machineSlug(m),
                          "x", db.machine(m).appPerfVsCvax));
    }
    return out;
}

std::vector<Figure>
table2Figures()
{
    ParallelRunner serial(1);
    return table2Figures(serial);
}

std::vector<Figure>
table2Figures(ParallelRunner & /* cells are cheap db reads */)
{
    const MachineId machines[] = {MachineId::CVAX, MachineId::M88000,
                                  MachineId::R2000, MachineId::SPARC,
                                  MachineId::I860};
    const PrimitiveCostDb &db = sharedCostDb();
    std::vector<Figure> out;
    for (Primitive p : allPrimitives) {
        for (MachineId m : machines) {
            std::uint64_t paper =
                PaperPrimitiveData::instructionCount(m, p);
            out.push_back(fig(
                "table2",
                std::string(primitiveSlug(p)) + "_instr." +
                    machineSlug(m),
                "instructions",
                static_cast<double>(db.instructions(m, p)),
                paper == 0 ? std::nan("")
                           : static_cast<double>(paper)));
        }
    }
    return out;
}

std::vector<Figure>
table3Figures()
{
    ParallelRunner serial(1);
    return table3Figures(serial);
}

std::vector<Figure>
table3Figures(ParallelRunner & /* cells are cheap db reads */)
{
    SrcRpcModel model(sharedCostDb().machine(MachineId::CVAX));
    RpcBreakdown small = model.nullRpc();
    RpcBreakdown large = model.roundTrip(74, 1500);

    std::vector<Figure> out;
    auto part = [&](const char *name, double us) {
        out.push_back(fig("table3", std::string(name) + "_us.CVAX",
                          "us", us));
    };
    part("client_stub", small.clientStubUs);
    part("server_stub", small.serverStubUs);
    part("kernel_transfer", small.kernelTransferUs);
    part("interrupt", small.interruptUs);
    part("checksum", small.checksumUs);
    part("copy", small.copyUs);
    part("dispatch", small.dispatchUs);
    part("controller", small.controllerUs);
    part("wire", small.wireUs);
    out.push_back(fig("table3", "null_rpc_total_us.CVAX", "us",
                      small.totalUs()));
    // The prose anchors: wire share ~17% small, ~50% at 1500 bytes.
    out.push_back(fig("table3", "wire_share_small.CVAX", "percent",
                      small.percent(small.wireUs), 17.0));
    out.push_back(fig("table3", "wire_share_1500b.CVAX", "percent",
                      large.percent(large.wireUs), 50.0));
    return out;
}

std::vector<Figure>
table4Figures()
{
    ParallelRunner serial(1);
    return table4Figures(serial);
}

std::vector<Figure>
table4Figures(ParallelRunner &runner)
{
    LrpcModel cvax(sharedCostDb().machine(MachineId::CVAX));
    LrpcBreakdown b = cvax.nullCall();

    std::vector<Figure> out;
    auto part = [&](const char *name, double us) {
        out.push_back(fig("table4", std::string(name) + "_us.CVAX",
                          "us", us));
    };
    part("stubs", b.stubUs);
    part("kernel_entry", b.kernelEntryUs);
    part("validation", b.validationUs);
    part("context_switch", b.contextSwitchUs);
    part("tlb_refill", b.tlbMissUs);
    part("arg_copy", b.argCopyUs);
    out.push_back(fig("table4", "null_lrpc_total_us.CVAX", "us",
                      b.totalUs(), 157.0));
    out.push_back(fig("table4", "hardware_minimum_us.CVAX", "us",
                      b.hardwareMinimumUs(), 109.0));
    out.push_back(fig("table4", "tlb_share.CVAX", "percent",
                      b.tlbPercent(), 25.0));
    // Tagged TLBs keep their entries across the two switches (s3.2).
    // One job per machine; cells land in machine order.
    const std::vector<MachineDesc> &machines = allMachines();
    std::vector<std::function<std::pair<double, double>()>> tasks;
    tasks.reserve(machines.size());
    for (const MachineDesc &md : machines)
        tasks.push_back([&md]() -> std::pair<double, double> {
            LrpcModel model(md);
            LrpcBreakdown lb = model.nullCall();
            return {lb.totalUs(),
                    static_cast<double>(
                        model.steadyStateTlbMisses())};
        });
    auto cells = runner.map<std::pair<double, double>>(tasks);
    for (std::size_t i = 0; i < machines.size(); ++i) {
        const char *slug = machineSlug(machines[i].id);
        out.push_back(fig("table4",
                          std::string("null_lrpc_total_us.") + slug,
                          "us", cells[i].first));
        out.push_back(fig("table4",
                          std::string("tlb_misses_per_call.") + slug,
                          "count", cells[i].second));
    }
    return out;
}

std::vector<Figure>
table5Figures()
{
    ParallelRunner serial(1);
    return table5Figures(serial);
}

std::vector<Figure>
table5Figures(ParallelRunner &runner)
{
    // The paper decomposes CVAX, R2000 and SPARC; the other Table 1
    // machines get the same profiler-derived anatomy with their totals
    // anchored to Table 1's null-syscall times.
    const MachineId machines[] = {MachineId::CVAX, MachineId::M88000,
                                  MachineId::R2000, MachineId::R3000,
                                  MachineId::SPARC};

    auto rows = Study::syscallAnatomy(runner);
    std::vector<Figure> out;
    for (MachineId m : machines) {
        double total = 0;
        for (const auto &r : rows) {
            if (r.machine != m)
                continue;
            total += r.simMicros;
            out.push_back(fig(
                "table5",
                std::string(phaseSlug(r.phase)) + "_us." +
                    machineSlug(m),
                "us", r.simMicros,
                r.paperMicros < 0 ? std::nan("") : r.paperMicros));
        }
        double paper =
            PaperPrimitiveData::microseconds(m,
                                             Primitive::NullSyscall);
        out.push_back(fig("table5",
                          std::string("total_us.") + machineSlug(m),
                          "us", total,
                          paper < 0 ? std::nan("") : paper));
    }
    return out;
}

std::vector<Figure>
table6Figures()
{
    ParallelRunner serial(1);
    return table6Figures(serial);
}

std::vector<Figure>
table6Figures(ParallelRunner & /* cells are cheap db reads */)
{
    struct PaperRow
    {
        MachineId id;
        double regs, fp, misc;
    };
    const PaperRow paper[] = {
        {MachineId::CVAX, 16, 0, 1},
        {MachineId::M88000, 32, 0, 27},
        {MachineId::R2000, 32, 32, 5},
        {MachineId::SPARC, 136, 32, 6},
        {MachineId::I860, 32, 32, 9},
        {MachineId::RS6000, 32, 64, 4},
    };

    auto rows = Study::threadState();
    std::vector<Figure> out;
    for (const auto &r : rows) {
        const PaperRow *p = nullptr;
        for (const auto &pr : paper)
            if (pr.id == r.machine)
                p = &pr;
        const char *slug = machineSlug(r.machine);
        out.push_back(fig("table6",
                          std::string("registers_words.") + slug,
                          "words", r.registers,
                          p ? p->regs : std::nan("")));
        out.push_back(fig("table6",
                          std::string("fp_state_words.") + slug,
                          "words", r.fpState,
                          p ? p->fp : std::nan("")));
        out.push_back(fig("table6",
                          std::string("misc_state_words.") + slug,
                          "words", r.miscState,
                          p ? p->misc : std::nan("")));
    }
    return out;
}

namespace
{

void
table7RowFigures(std::vector<Figure> &out, const Table7Row &r)
{
    Table7Row paper = paperTable7Row(r.app, r.structure);
    bool has_paper = paper.elapsedSeconds > 0;
    const char *os =
        r.structure == OsStructure::Monolithic ? "mach25" : "mach30";
    auto suffix = [&](const char *name) {
        return std::string(name) + "." + r.app + "." + os;
    };
    auto cell = [&](const char *name, const char *unit, double sim,
                    double pap) {
        out.push_back(fig("table7", suffix(name), unit, sim,
                          has_paper ? pap : std::nan("")));
    };
    cell("elapsed", "s", r.elapsedSeconds, paper.elapsedSeconds);
    cell("addr_space_switches", "count",
         static_cast<double>(r.addressSpaceSwitches),
         static_cast<double>(paper.addressSpaceSwitches));
    cell("thread_switches", "count",
         static_cast<double>(r.threadSwitches),
         static_cast<double>(paper.threadSwitches));
    cell("syscalls", "count", static_cast<double>(r.systemCalls),
         static_cast<double>(paper.systemCalls));
    cell("emulated_instrs", "count",
         static_cast<double>(r.emulatedInstructions),
         static_cast<double>(paper.emulatedInstructions));
    cell("kernel_tlb_misses", "count",
         static_cast<double>(r.kernelTlbMisses),
         static_cast<double>(paper.kernelTlbMisses));
    cell("other_exceptions", "count",
         static_cast<double>(r.otherExceptions),
         static_cast<double>(paper.otherExceptions));
    if (r.structure == OsStructure::SmallKernel)
        cell("os_primitive_share", "percent",
             r.percentTimeInPrimitives,
             paper.percentTimeInPrimitives);
}

/** The R3000 Table 7 grid with each cell reconciling counted kernel
 *  events x primitive costs against the cycles the kernel actually
 *  charged to primitives over the whole run. The counter session only
 *  reads the simulation, so every Table 7 field equals the plain
 *  machStudy grid's and the rows serve all three grid builders. */
std::vector<Table7Row>
kernelWindowGrid(ParallelRunner &runner)
{
    OsModelConfig config;
    config.measureKernelWindow = true;
    return runMachGrid(makeMachine(MachineId::R3000), runner, config);
}

} // namespace

std::vector<Figure>
table7Figures()
{
    ParallelRunner serial(1);
    return table7Figures(serial);
}

std::vector<Figure>
table7Figures(ParallelRunner &runner)
{
    return table7Figures(Study::machStudy(MachineId::R3000, runner));
}

std::vector<Figure>
table7Figures(const std::vector<Table7Row> &grid)
{
    std::vector<Figure> out;
    for (const Table7Row &r : grid)
        table7RowFigures(out, r);
    return out;
}

std::vector<Figure>
headlineFigures()
{
    ParallelRunner serial(1);
    return headlineFigures(serial);
}

std::vector<Figure>
headlineFigures(ParallelRunner &runner)
{
    return headlineFigures(Study::machStudy(MachineId::R3000, runner));
}

std::vector<Figure>
headlineFigures(const std::vector<Table7Row> &grid)
{
    const PrimitiveCostDb &db = sharedCostDb();
    std::vector<Figure> out;

    // s5: andrew-remote address-space-switch inflation, 3.0 vs 2.5,
    // and the SPARC's syscall+switch overhead for the same script.
    double sw25 = 0, sw30 = 0;
    for (const Table7Row &r : grid) {
        if (r.app != "andrew-remote")
            continue;
        double sw = static_cast<double>(r.addressSpaceSwitches);
        if (r.structure == OsStructure::Monolithic)
            sw25 = sw;
        else
            sw30 = sw;
    }
    if (sw25 > 0)
        out.push_back(fig("headlines",
                          "andrew_remote_switch_inflation", "x",
                          sw30 / sw25, 33.0));
    for (const Table7Row &r : grid) {
        if (r.app != "andrew-remote" ||
            r.structure != OsStructure::SmallKernel)
            continue;
        double sparc_s =
            (static_cast<double>(r.systemCalls) *
                 db.micros(MachineId::SPARC,
                           Primitive::NullSyscall) +
             static_cast<double>(r.addressSpaceSwitches) *
                 db.micros(MachineId::SPARC,
                           Primitive::ContextSwitch)) /
            1e6;
        out.push_back(fig("headlines",
                          "sparc_mach30_syscall_switch_overhead", "s",
                          sparc_s, 9.4));
    }

    // s2.3: SPARC register-window share of the null system call.
    {
        const MachineDesc &sparc = db.machine(MachineId::SPARC);
        ExecModel exec(sparc);
        Cycles window = exec.runStream(sparcWindowSaveSeq(sparc)).cycles;
        Cycles total = db.cycles(MachineId::SPARC,
                                 Primitive::NullSyscall);
        out.push_back(fig("headlines", "sparc_window_share", "percent",
                          100.0 * static_cast<double>(window) /
                              static_cast<double>(total),
                          30.0));
    }

    // s2.1: Sun-3/75 -> SPARCstation null-RPC speedup vs the 5x
    // integer speedup (Sprite measured ~2x).
    {
        double sun3 = SrcRpcModel(db.machine(MachineId::SUN3))
                          .nullRpc()
                          .totalUs();
        double sparc = SrcRpcModel(db.machine(MachineId::SPARC))
                           .nullRpc()
                           .totalUs();
        out.push_back(fig("headlines", "sun3_to_sparc_rpc_speedup",
                          "x", sun3 / sparc, 2.0));
    }

    // s3.2: the i860 PTE change is almost entirely cache flushing.
    {
        const HandlerProgram &pte = cachedHandler(
            db.machine(MachineId::I860), Primitive::PteChange);
        std::uint64_t flush_loop = 0;
        for (const auto &ph : pte.phases)
            flush_loop += ph.code.countOf(OpKind::CacheFlushLine);
        out.push_back(fig("headlines", "i860_pte_flush_instrs",
                          "instructions",
                          static_cast<double>(flush_loop * 4), 536.0));
        out.push_back(fig(
            "headlines", "i860_pte_total_instrs", "instructions",
            static_cast<double>(pte.instructionCount()), 559.0));
    }
    return out;
}

std::vector<Figure>
countersFigures()
{
    ParallelRunner serial(1);
    return countersFigures(serial);
}

std::vector<Figure>
countersFigures(ParallelRunner &runner)
{
    // One counted session per (machine, primitive) cell; each cell
    // opens its own counter window, so the grid fans cleanly.
    const std::vector<MachineDesc> &machines = table1Machines();
    std::vector<std::function<double()>> tasks;
    for (const MachineDesc &m : machines)
        for (Primitive p : allPrimitives)
            tasks.push_back([&m, p] {
                return countPrimitive(m, p)
                    .reconciliation.explainedPct();
            });
    std::vector<double> pct = runner.map<double>(tasks);

    std::vector<Figure> out;
    std::size_t i = 0;
    for (const MachineDesc &m : machines)
        for (Primitive p : allPrimitives)
            out.push_back(fig(
                "counters",
                std::string(primitiveSlug(p)) + "_explained_pct." +
                    machineSlug(m.id),
                "percent", pct[i++]));
    return out;
}

std::vector<Figure>
kernelWindowFigures()
{
    ParallelRunner serial(1);
    return kernelWindowFigures(serial);
}

std::vector<Figure>
kernelWindowFigures(ParallelRunner &runner)
{
    return kernelWindowFigures(kernelWindowGrid(runner));
}

std::vector<Figure>
kernelWindowFigures(const std::vector<Table7Row> &grid)
{
    std::vector<Figure> out;
    for (const Table7Row &r : grid) {
        const char *os = r.structure == OsStructure::Monolithic
                             ? "mach25"
                             : "mach30";
        out.push_back(fig("counters",
                          std::string("kernel_window_explained_pct.") +
                              r.app + "." + os,
                          "percent", r.kernelWindow.explainedPct()));
    }
    return out;
}

std::vector<Figure>
calibrationFigures()
{
    ParallelRunner serial(1);
    return calibrationFigures(serial);
}

namespace
{

/** TLB misses taken re-establishing a working set after an
 *  address-space switch, averaged over an alternating two-space
 *  scenario (the §3.2 "TLB misses per context switch" rate). */
double
tlbMissesPerSwitch(const MachineDesc &machine)
{
    constexpr std::uint64_t wsetPages = 16;
    constexpr unsigned switches = 128;

    SimKernel kernel(machine);
    AddressSpace &a = kernel.createSpace("calib-a");
    a.setWorkingSet(0x1000, wsetPages);
    a.mapRange(0x1000, wsetPages, 0x10000, {});
    AddressSpace &b = kernel.createSpace("calib-b");
    b.setWorkingSet(0x3000, wsetPages);
    b.mapRange(0x3000, wsetPages, 0x20000, {});

    // Warm both working sets so only switch-induced refills remain.
    kernel.contextSwitchTo(a);
    kernel.touchWorkingSet();
    kernel.contextSwitchTo(b);
    kernel.touchWorkingSet();

    HwCounters &hw = HwCounters::instance();
    bool was_on = hw.enabled();
    hw.enable();
    CounterSet base = hw.snapshot();
    for (unsigned i = 0; i < switches; ++i) {
        kernel.contextSwitchTo(i % 2 == 0 ? a : b);
        kernel.touchWorkingSet();
    }
    CounterSet d = hw.snapshot().delta(base);
    hw.disable();
    hw.reset();
    if (was_on)
        hw.resume();
    return static_cast<double>(d.get(HwCounter::TlbMisses)) /
           switches;
}

} // namespace

std::vector<Figure>
calibrationFigures(ParallelRunner &runner)
{
    const std::vector<MachineDesc> &machines = table1Machines();

    // Every rate is measured in its own counted session, so the cells
    // fan like the counters grid does.
    std::vector<std::function<double()>> tasks;
    for (MachineId m : {MachineId::R2000, MachineId::R3000}) {
        tasks.push_back([m] {
            CountedPrimitiveRun r =
                countPrimitive(makeMachine(m), Primitive::NullSyscall);
            std::uint64_t stores = r.counters.get(HwCounter::WbStores);
            return stores ? static_cast<double>(r.counters.get(
                                HwCounter::WbStalls)) /
                                static_cast<double>(stores)
                          : 0.0;
        });
        tasks.push_back([m] {
            CountedPrimitiveRun r =
                countPrimitive(makeMachine(m), Primitive::NullSyscall);
            std::uint64_t stores = r.counters.get(HwCounter::WbStores);
            return stores ? static_cast<double>(r.counters.get(
                                HwCounter::WbStallCycles)) /
                                static_cast<double>(stores)
                          : 0.0;
        });
    }
    for (const MachineDesc &m : machines)
        tasks.push_back([&m] { return tlbMissesPerSwitch(m); });
    tasks.push_back([] {
        constexpr unsigned reps = 16;
        CountedPrimitiveRun r =
            countPrimitive(makeMachine(MachineId::SPARC),
                           Primitive::ContextSwitch, reps);
        return static_cast<double>(
                   r.counters.get(HwCounter::WindowsSpilled)) /
               reps;
    });
    std::vector<double> vals = runner.map<double>(tasks);

    std::vector<Figure> out;
    std::size_t i = 0;
    for (MachineId m : {MachineId::R2000, MachineId::R3000}) {
        out.push_back(fig("calibration",
                          std::string("wb_stalls_per_store.") +
                              machineSlug(m),
                          "x", vals[i++]));
        out.push_back(fig("calibration",
                          std::string("wb_stall_cycles_per_store.") +
                              machineSlug(m),
                          "x", vals[i++]));
    }
    for (const MachineDesc &m : machines)
        out.push_back(fig("calibration",
                          std::string("tlb_misses_per_context_switch.") +
                              machineSlug(m.id),
                          "x", vals[i++]));
    out.push_back(fig("calibration",
                      "window_spills_per_context_switch.SPARC", "x",
                      vals[i++]));
    return out;
}

std::vector<Figure>
allFigures()
{
    ParallelRunner serial(1);
    return allFigures(serial);
}

std::vector<Figure>
allFigures(ParallelRunner &runner)
{
    using Builder = std::vector<Figure> (*)(ParallelRunner &);
    std::vector<Figure> out;
    auto append = [&out](const std::vector<Figure> &part) {
        out.insert(out.end(), part.begin(), part.end());
    };
    for (Builder fn :
         {static_cast<Builder>(table1Figures),
          static_cast<Builder>(table2Figures),
          static_cast<Builder>(table3Figures),
          static_cast<Builder>(table4Figures),
          static_cast<Builder>(table5Figures),
          static_cast<Builder>(table6Figures)})
        append(fn(runner));
    // One grid for its three readers; it is a local, so the next call
    // simulates it again.
    const std::vector<Table7Row> grid = kernelWindowGrid(runner);
    append(table7Figures(grid));
    append(headlineFigures(grid));
    append(countersFigures(runner));
    append(kernelWindowFigures(grid));
    append(calibrationFigures(runner));
    return out;
}

} // namespace aosd
