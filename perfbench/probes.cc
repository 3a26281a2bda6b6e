/**
 * @file
 * Layer probes of a traced run. Each probe is a benchmark call into
 * one layer's public functions, timed, with the hardware counters on
 * where the layer counts:
 *
 *   costdb  a fresh PrimitiveCostDb (the set-up cost)
 *   grid    one serial runMachGrid after each traced iteration (the
 *           pipeline's also the sampled grid), so a grid and the
 *           stages that recompute it are timed under the same host
 *           load; then each MachSystem::run of the grid with
 *           HwCounters on (cell times, TLB counts)
 *   traffic each (machine, load level) cell of the workload's sweeps
 *           as a one-cell buildTrafficDoc call on the sweep's random
 *           stream; the cell must equal the sweep's (one checked op)
 *   kernel  the workload's traffic kernel events, per machine, replayed
 *           through SimKernel's primitive entry points with HwCounters
 *           on (TLB lookups, virtual-cache lines flushed)
 *   serial  the pipeline iteration again on one worker (speed-up)
 */

#include <algorithm>

#include "arch/machines.hh"
#include "cpu/primitive_costs.hh"
#include "os/kernel/kernel.hh"
#include "perfbench.hh"
#include "sim/counters/counters.hh"
#include "study/timeseries_report.hh"
#include "workload/os_model.hh"

using namespace aosd;

namespace perfbench
{

namespace
{

/** Counts of one probe, summed over its calls. */
struct LayerCounts
{
    double tlbHits = 0;
    double tlbMisses = 0;
    double flushLines = 0;

    void
    add(const LayerCounts &o)
    {
        tlbHits += o.tlbHits;
        tlbMisses += o.tlbMisses;
        flushLines += o.flushLines;
    }

    void
    add(const CounterSet &c)
    {
        tlbHits += static_cast<double>(c.get(HwCounter::TlbHits));
        tlbMisses += static_cast<double>(c.get(HwCounter::TlbMisses));
        flushLines +=
            static_cast<double>(c.get(HwCounter::CacheFlushLines));
    }
};

/** Median build time of a fresh PrimitiveCostDb; `instructions` gets
 *  the instructions the execution model retires building one. */
double
probeCostDb(double &instructions)
{
    std::vector<double> t;
    for (int i = 0; i < 5; ++i) {
        double t0 = wallNow();
        PrimitiveCostDb db;
        t.push_back(wallNow() - t0);
    }
    HwCounters &ctr = HwCounters::instance();
    ctr.enable();
    PrimitiveCostDb db;
    instructions = static_cast<double>(ctr.value(HwCounter::InstrRetired));
    ctr.disable();
    ctr.reset();
    return median(t);
}

struct GridProbe
{
    std::vector<double> cells;
    LayerCounts counts;
};

GridProbe
probeGridCells()
{
    GridProbe g;
    const MachineDesc machine = makeMachine(MachineId::R3000);
    HwCounters &ctr = HwCounters::instance();
    for (OsStructure s :
         {OsStructure::Monolithic, OsStructure::SmallKernel})
        for (const AppProfile &app : table7Workloads()) {
            MachSystem system(machine, s);
            ctr.enable();
            double t0 = wallNow();
            system.run(app);
            g.cells.push_back(wallNow() - t0);
            g.counts.add(ctr.snapshot());
            ctr.disable();
        }
    ctr.reset();
    return g;
}

struct TrafficProbe
{
    std::vector<double> cells;
    /** Sum over the sweeps of each sweep's slowest cell. */
    double slowestCellSum = 0;
    double requests = 0;
};

/** Time each cell of the workload's sweeps alone. A traffic cell's
 *  random stream is seeded with the sweep seed XOR a mix of the
 *  machine and the level's index (cellSeed in workload/traffic.cc);
 *  the one-cell sweep moves level `li` to index 0 and XORs the seed to
 *  match, so it replays the sweep's cell exactly, as `tally` checks. */
TrafficProbe
probeTrafficCells(const Workload &w, const Iteration &it,
                  CheckTally &tally)
{
    const std::uint64_t level_mix = 0xc2b2ae3d27d4eb4fULL;
    TrafficProbe p;
    ParallelRunner serial(1);
    for (const Sweep &s : w.sweeps) {
        const Json &machines =
            docNamed(it, "traffic." + s.name)->at("machines");
        double slowest = 0;
        for (std::size_t m = 0; m < machines.size(); ++m) {
            const std::string slug =
                machines.at(m).at("machine").asString();
            for (std::size_t li = 0; li < s.config.levels.size(); ++li) {
                TrafficConfig cfg = s.config;
                cfg.machines = {machineFromSlug(slug)};
                cfg.levels = {s.config.levels[li]};
                cfg.seed ^= ((li + 1) * level_mix) ^ level_mix;
                double t0 = wallNow();
                Json doc = buildTrafficDoc(cfg, serial);
                double cell_s = wallNow() - t0;
                p.cells.push_back(cell_s);
                slowest = std::max(slowest, cell_s);
                p.requests += static_cast<double>(cfg.requestsPerLevel);
                const Json &cell =
                    doc.at("machines").at(0).at("load_levels").at(0);
                const Json &want = machines.at(m).at("load_levels").at(li);
                tally.check(cell.dump() == want.dump(),
                            "traffic probe cell " + s.name + " " + slug +
                                "@" + std::to_string(li) +
                                " differs from the sweep's");
            }
        }
        p.slowestCellSum += slowest;
    }
    return p;
}

/** Kernel events of one machine, by reconciliation term. */
using TermCounts = std::map<std::string, std::uint64_t>;

std::map<std::string, TermCounts>
trafficEventsByMachine(const Iteration &it)
{
    std::map<std::string, TermCounts> out;
    for (std::size_t i = 0; i < it.names.size(); ++i) {
        if (it.names[i].rfind("traffic.", 0) != 0)
            continue;
        const Json &machines = it.docs[i].at("machines");
        for (std::size_t m = 0; m < machines.size(); ++m) {
            TermCounts &tc =
                out[machines.at(m).at("machine").asString()];
            const Json &levels = machines.at(m).at("load_levels");
            for (std::size_t l = 0; l < levels.size(); ++l)
                for (const auto &[term, v] : levels.at(l)
                                                 .at("kernel_window")
                                                 .at("terms")
                                                 .items())
                    tc[term] += v.at("count").asUint();
        }
    }
    return out;
}

struct KernelProbe
{
    LayerCounts counts;
    double pteSeconds = 0;
    double pteFlushLines = 0;
};

/** Replay each machine's traffic kernel events one by one through the
 *  SimKernel entry points the request classes use. */
KernelProbe
probeKernel(const Iteration &it)
{
    KernelProbe p;
    HwCounters &ctr = HwCounters::instance();
    const Vpn base = 0x1000;
    const std::uint64_t pages = 64;
    for (const auto &[slug, tc] : trafficEventsByMachine(it)) {
        auto count = [&](const char *term) {
            auto found = tc.find(term);
            return found == tc.end() ? std::uint64_t{0} : found->second;
        };
        SimKernel kernel(makeMachine(machineFromSlug(slug)));
        AddressSpace &space = kernel.createSpace("probe");
        space.mapRange(base, pages, 0x50000, {});
        ctr.enable();
        for (std::uint64_t i = count("kernel_syscalls"); i; --i)
            kernel.syscall();
        for (std::uint64_t i = count("kernel_traps"); i; --i)
            kernel.trap();
        for (std::uint64_t i = count("thread_switches"); i; --i)
            kernel.threadSwitch();
        for (std::uint64_t i = count("emulated_tas_ops"); i; --i)
            kernel.emulateTestAndSet();
        // The reconciliation's emulated_instrs term already excludes
        // the test&set ops.
        if (std::uint64_t n = count("emulated_instrs"))
            kernel.emulateInstructions(n);
        CounterSet before_pte = ctr.snapshot();
        double t0 = wallNow();
        for (std::uint64_t i = 0, n = count("pte_changes"); i < n; ++i) {
            PageProt prot;
            prot.writable = (i & 1) != 0;
            kernel.pteChange(space, base + i % pages, prot);
        }
        double pte_s = wallNow() - t0;
        CounterSet end = ctr.snapshot();
        ctr.disable();
        double lines = static_cast<double>(
            end.delta(before_pte).get(HwCounter::CacheFlushLines));
        if (lines > 0) {
            p.pteSeconds += pte_s;
            p.pteFlushLines += lines;
        }
        p.counts.add(end);
    }
    ctr.reset();
    return p;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

} // namespace

void
timeSerialGrids(const Workload &w, StageTimes &st)
{
    if (w.gridRuns == 0)
        return;
    const MachineDesc machine = makeMachine(MachineId::R3000);
    ParallelRunner serial(1);
    st.time("serial_grid", [&] { runMachGrid(machine, serial, {}); });
    if (w.kind == WorkloadKind::Pipeline) {
        // The timeseries document's grid: sampled, with kernel
        // windows measured.
        OsModelConfig sampled;
        sampled.samplingIntervalCycles =
            TimeseriesOptions{}.table7IntervalCycles;
        sampled.measureKernelWindow = true;
        st.time("sampled_grid",
                [&] { runMachGrid(machine, serial, sampled); });
    }
}

void
runProbes(const Workload &w, const Iteration &it,
          const StageTimes &stages, double wall_s, Metrics &out,
          CheckTally &tally)
{
    LayerCounts counts;
    double instructions = 0;
    out["cpu.costdb_build_s"] = probeCostDb(instructions);
    out["cpu.instructions_retired"] = instructions;

    double cell_max = 0, grid_equivalents = 0;
    out["workload.grid_s"] = 0;
    out["workload.cells"] = 0;
    out["workload.cell_p50_s"] = 0;
    out["workload.cell_max_s"] = 0;
    out["mem.host_ns_per_tlb_lookup"] = 0;
    out["sim.sampling.overhead_pct"] = 0;
    if (w.kind != WorkloadKind::Traffic) {
        GridProbe g = probeGridCells();
        double cell_sum = 0;
        for (double c : g.cells)
            cell_sum += c;
        cell_max = *std::max_element(g.cells.begin(), g.cells.end());
        counts.add(g.counts);
        out["workload.grid_s"] = stages.get("serial_grid");
        out["workload.cells"] = static_cast<double>(g.cells.size());
        out["workload.cell_p50_s"] = median(g.cells);
        out["workload.cell_max_s"] = cell_max;
        out["mem.host_ns_per_tlb_lookup"] =
            1e9 * ratio(cell_sum, g.counts.tlbHits + g.counts.tlbMisses);

        // Host CPU of the grid-bound stages in units of one serial
        // grid: how many times the workload recomputes the grid.
        double grid_cpu = stages.getCpu("table7") +
                          stages.getCpu("headlines") +
                          stages.getCpu("kernel_window_figs") +
                          stages.getCpu("kernel_windows_doc");
        if (w.kind == WorkloadKind::Pipeline) {
            grid_cpu += stages.getCpu("sampled_grid");
            out["sim.sampling.overhead_pct"] =
                100.0 * (ratio(stages.get("sampled_grid"),
                               stages.get("serial_grid")) -
                         1.0);
        }
        grid_equivalents = ratio(grid_cpu, stages.getCpu("serial_grid"));
    }
    out["workload.grid_equivalents"] = grid_equivalents;

    double slowest_traffic_cells = 0;
    out["workload.traffic_cells"] = 0;
    out["workload.traffic_cell_p50_s"] = 0;
    out["workload.traffic_cell_max_s"] = 0;
    out["workload.traffic_requests_per_s"] = 0;
    out["mem.host_ns_per_flushed_line"] = 0;
    if (!w.sweeps.empty()) {
        TrafficProbe t = probeTrafficCells(w, it, tally);
        double sum = 0;
        for (double c : t.cells)
            sum += c;
        slowest_traffic_cells = t.slowestCellSum;
        out["workload.traffic_cells"] = static_cast<double>(t.cells.size());
        out["workload.traffic_cell_p50_s"] = median(t.cells);
        out["workload.traffic_cell_max_s"] =
            *std::max_element(t.cells.begin(), t.cells.end());
        out["workload.traffic_requests_per_s"] = ratio(t.requests, sum);

        KernelProbe k = probeKernel(it);
        counts.add(k.counts);
        out["mem.host_ns_per_flushed_line"] =
            1e9 * ratio(k.pteSeconds, k.pteFlushLines);
    }

    double lookups = counts.tlbHits + counts.tlbMisses;
    out["mem.tlb_lookups"] = lookups;
    out["mem.tlb_misses"] = counts.tlbMisses;
    out["mem.tlb_hit_ratio"] = ratio(counts.tlbHits, lookups);
    out["mem.cache_flush_lines"] = counts.flushLines;

    // No fan-out ends before its slowest cell, whatever the worker
    // count: each grid fan-out waits for the slowest plain grid cell
    // (the sampled timeseries grid's is slower still), each sweep for
    // its slowest cell. A lower-bound estimate, on the pipeline only.
    out["sim.parallel.jobs"] = w.jobs;
    out["sim.parallel.critical_path_s"] =
        w.kind == WorkloadKind::Pipeline
            ? w.gridRuns * cell_max + slowest_traffic_cells
            : 0.0;
    double speedup = 1.0;
    if (w.jobs > 1) {
        ParallelRunner serial(1);
        double t0 = wallNow();
        runIteration(w, serial, nullptr);
        speedup = ratio(wallNow() - t0, wall_s);
    }
    out["sim.parallel.speedup"] = speedup;
    out["sim.parallel.efficiency"] = speedup / w.jobs;
}

} // namespace perfbench
