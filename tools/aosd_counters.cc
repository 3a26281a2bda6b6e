/**
 * @file
 * aosd_counters: simulated hardware performance counters and the
 * cycles-explained cross-check for the OS primitives.
 *
 *   aosd_counters                        # reconciliation tables
 *   aosd_counters --json counters.json   # machine-readable document
 *   aosd_counters --reps 32              # repetitions per primitive
 *   aosd_counters --machines R2000,SPARC # subset of Table 1
 *   aosd_counters --min-explained 95     # gate (percent)
 *   aosd_counters --jobs 8               # parallel counting grid
 *   aosd_counters --kernel-windows       # reconcile whole SimKernel
 *                                        # workload windows instead
 *
 * Every machine x primitive handler runs under the hardware-counter
 * subsystem; event counts times the machine's modeled penalties must
 * reproduce the cycles the execution model charged. The tool exits
 * non-zero naming any pair whose explained share falls outside
 * [min, 200-min] percent (the default gate is 95%: under-explaining
 * means an uncounted event source, over-explaining a double count).
 *
 * --kernel-windows runs the same cross-check over whole Table 7
 * workload windows: counted kernel events x the machine's primitive
 * costs vs. the cycles SimKernel charged to primitives across each
 * (app, OS structure) run, gated by the same --min-explained band.
 * One machine per invocation (--machines picks it; default R3000).
 *
 * The counters.json schema is documented in
 * src/study/counters_report.hh and docs/EXPERIMENTS.md.
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "arch/machines.hh"
#include "sim/cli.hh"
#include "sim/parallel/parallel_runner.hh"
#include "study/counters_report.hh"

using namespace aosd;

int
main(int argc, char **argv)
{
    std::string json_path;
    unsigned reps = 16;
    unsigned jobs = ParallelRunner::defaultJobs();
    double min_explained = 95.0;
    bool kernel_windows = false;
    std::vector<MachineId> machine_ids;

    Cli cli;
    cli.text("--json", "path", "write counters.json", json_path)
        .reps("repetitions per primitive (default 16)", reps)
        .machines("machines to count (default: the five Table 1 "
                  "machines)",
                  machine_ids)
        .number("--min-explained", "PCT",
                "fail below PCT% explained (default 95)", min_explained,
                0, 100)
        .jobs(jobs)
        .toggle("--kernel-windows",
                "reconcile Table 7 workload windows instead (one "
                "machine; default R3000)",
                kernel_windows);
    if (auto rc = cli.parseOrExit(argc, argv))
        return *rc;
    std::vector<MachineDesc> machines;
    for (MachineId id : machine_ids)
        machines.push_back(makeMachine(id));
    ParallelRunner runner(jobs);

    if (kernel_windows) {
        MachineDesc machine =
            machines.empty() ? makeMachine(MachineId::R3000)
                             : machines.front();
        Json doc = buildKernelWindowsDoc(machine, runner);
        double tol = 100.0 - min_explained;
        int window_failures = 0;
        for (const auto &kv : doc.at("cells").items()) {
            const Json &rec = kv.second.at("reconciliation");
            double pct = rec.at("explained_pct").asNumber();
            double cycles = rec.at("actual_cycles").asNumber();
            bool ok = std::fabs(pct - 100.0) <= tol;
            if (!ok) {
                ++window_failures;
                std::fprintf(stderr,
                             "KERNEL WINDOW FAILED %s/%s: %.2f%% of "
                             "%.0f primitive cycles explained "
                             "(gate %.0f%%)\n",
                             machineSlug(machine.id), kv.first.c_str(),
                             pct, cycles, min_explained);
            }
            if (json_path.empty())
                std::printf("%s / %s: %.0f primitive cycles, %.2f%% "
                            "explained%s\n",
                            machineSlug(machine.id), kv.first.c_str(),
                            cycles, pct, ok ? "" : "  <-- FAILED");
        }
        if (!json_path.empty() &&
            !writeOutput(json_path, doc.dump(1), "kernel windows"))
            return 2;
        if (window_failures) {
            std::fprintf(stderr,
                         "%d workload window(s) outside the %.0f%% "
                         "explained band\n",
                         window_failures, min_explained);
            return 1;
        }
        return 0;
    }

    if (machines.empty())
        machines = table1Machines();

    std::vector<CountedPrimitiveRun> runs =
        countAllPrimitives(machines, reps, runner);

    bool text_out = json_path.empty();
    int failed = 0;
    for (const CountedPrimitiveRun &run : runs) {
        const Reconciliation &rec = run.reconciliation;
        double pct = rec.explainedPct();
        bool ok = rec.reconciles(100.0 - min_explained);
        if (!ok) {
            ++failed;
            std::fprintf(stderr,
                         "RECONCILIATION FAILED %s/%s: %.2f%% of %llu "
                         "cycles explained (gate %.0f%%)\n",
                         machineSlug(run.machine),
                         primitiveSlug(run.primitive), pct,
                         static_cast<unsigned long long>(
                             run.totalCycles),
                         min_explained);
        }
        if (!text_out)
            continue;
        std::printf("%s / %s: %llu cycles, %.2f%% explained%s\n",
                    machineSlug(run.machine),
                    primitiveSlug(run.primitive),
                    static_cast<unsigned long long>(run.totalCycles),
                    pct, ok ? "" : "  <-- FAILED");
        for (const ExplainedTerm &t : rec.terms) {
            if (t.count == 0)
                continue;
            std::printf("  %-24s %10llu x %7.1f = %12.0f cy\n",
                        counterName(t.counter),
                        static_cast<unsigned long long>(t.count),
                        t.penaltyCycles, t.explained());
        }
        std::printf("\n");
    }

    if (!json_path.empty() &&
        !writeOutput(json_path, buildCountersDoc(runs, reps).dump(1),
                     "counters"))
        return 2;

    if (failed) {
        std::fprintf(stderr,
                     "%d machine/primitive pair(s) below %.0f%% "
                     "explained\n",
                     failed, min_explained);
        return 1;
    }
    return 0;
}
