/**
 * @file
 * aosd_perfbench: time one workload end to end and check its output.
 *
 *   aosd_perfbench --workload report|traffic|pipeline [--seed N]
 *                  [--seconds S] [--trace 0|1] [--setup-only]
 *   aosd_perfbench --record-digests PATH
 *
 * Run from the repository root (perfbench/run.py builds and runs it):
 * the references are read from tests/ and perfbench/digests.json
 * there. It prints "READY" and the set-up's CPU seconds once set-up is
 * done, iterates the workload for
 * --seconds, and prints as its last line one JSON object:
 *
 *   {"correct": true, "attempted": N, "failed": 0,
 *    "metrics": {"wall_s": {"value": 1.2, "unit": "s"}, ...}}
 *
 * --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
 * ones (see perfbench/README.md). A Debug or sanitizer build, a
 * library compiled with a subsystem disabled, or AOSD_NO_BATCH /
 * AOSD_NO_PREDECODE in the environment, is refused: it prints a failed
 * result and exits 1.
 */

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "cpu/primitive_costs.hh"
#include "perfbench.hh"
#include "study/figures.hh"

using namespace aosd;
using namespace perfbench;

namespace
{

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    bool setupOnly = false;
    std::string recordDigests;
};

/** The references, relative to the repository root. */
const char *const goldenDir = "tests";
const char *const digestPath = "perfbench/digests.json";

void
usage()
{
    std::fprintf(
        stderr,
        "usage: aosd_perfbench --workload report|traffic|pipeline\n"
        "           [--seed N] [--seconds S] [--trace 0|1]\n"
        "           [--setup-only]\n"
        "       aosd_perfbench --record-digests PATH\n");
}

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--setup-only") {
            a.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const char *v = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            a.workload = v;
        } else if (arg == "--seed") {
            a.seed = std::strtoull(v, &end, 10);
        } else if (arg == "--seconds") {
            a.seconds = std::strtod(v, &end);
            if (!(a.seconds > 0))
                return false;
        } else if (arg == "--trace") {
            a.trace = std::strcmp(v, "1") == 0;
            if (!a.trace && std::strcmp(v, "0") != 0)
                return false;
        } else if (arg == "--record-digests") {
            a.recordDigests = v;
        } else {
            return false;
        }
        if (end && *end)
            return false;
    }
    return !a.workload.empty() || !a.recordDigests.empty();
}

/** Reasons this build or environment must not be timed. */
std::vector<std::string>
buildProblems()
{
    std::vector<std::string> p;
#ifndef NDEBUG
    p.push_back("assertions are on (Debug build)");
#endif
    std::string type = PERFBENCH_BUILD_TYPE;
    if (type != "Release" && type != "RelWithDebInfo")
        p.push_back("build type " + type +
                    " (want Release or RelWithDebInfo)");
    // perfbench's own CMake has no sanitizer or AOSD_DISABLE_* option
    // (those live in the root CMakeLists); its compiler flags are the
    // one route by which either reaches this build.
    std::string flags = PERFBENCH_CXX_FLAGS;
    if (flags.find("-fsanitize") != std::string::npos)
        p.push_back("sanitizer build (" + flags + ")");
    if (flags.find("_DISABLED") != std::string::npos)
        p.push_back("a subsystem is compiled out (" + flags + ")");
    for (const char *var : {"AOSD_NO_BATCH", "AOSD_NO_PREDECODE"}) {
        const char *v = std::getenv(var);
        if (v && v[0] && std::strcmp(v, "0") != 0)
            p.push_back(std::string(var) +
                        " is set (selects a reference path)");
    }
    return p;
}

void
printResult(const CheckTally &tally, const Metrics &values,
            const std::map<std::string, const char *> &units)
{
    Json metrics = Json::object();
    for (const auto &[name, v] : values) {
        Json m = Json::object();
        m.set("value", Json(v));
        m.set("unit", Json(units.at(name)));
        metrics.set(name, std::move(m));
    }
    Json out = Json::object();
    out.set("correct", Json(tally.failed == 0 && tally.attempted > 0));
    out.set("attempted", Json(std::max<std::uint64_t>(tally.attempted, 1)));
    out.set("failed", Json(tally.failed));
    out.set("metrics", std::move(metrics));
    std::printf("%s\n", out.dump().c_str());
    std::fflush(stdout);
}

/** Units of every metric the benchmark can report. */
const std::map<std::string, const char *> &
metricUnits()
{
    static const std::map<std::string, const char *> units = {
        {"wall_s", "s"},
        {"cpu_s", "s"},
        {"sim_events_per_s", "1/s"},
        {"peak_rss_mb", "MB"},
        {"paper_err_pct", "%"},
        {"study.table7_s", "s"},
        {"study.headlines_s", "s"},
        {"study.kernel_window_figs_s", "s"},
        {"study.other_figs_s", "s"},
        {"study.timeseries_s", "s"},
        {"study.kernel_windows_doc_s", "s"},
        {"study.spans_s", "s"},
        {"study.primitive_docs_s", "s"},
        {"study.dashboard_s", "s"},
        {"study.traffic_s", "s"},
        {"study.grid_bound_pct", "%"},
        {"workload.grid_s", "s"},
        {"workload.grid_equivalents", "x"},
        {"workload.cells", "count"},
        {"workload.cell_p50_s", "s"},
        {"workload.cell_max_s", "s"},
        {"workload.traffic_cells", "count"},
        {"workload.traffic_cell_p50_s", "s"},
        {"workload.traffic_cell_max_s", "s"},
        {"workload.traffic_requests_per_s", "1/s"},
        {"workload.host_ns_per_kernel_event", "ns"},
        {"os.kernel_events", "count"},
        {"os.context_switches", "count"},
        {"os.pte_changes", "count"},
        {"mem.tlb_lookups", "count"},
        {"mem.tlb_misses", "count"},
        {"mem.tlb_hit_ratio", "ratio"},
        {"mem.host_ns_per_tlb_lookup", "ns"},
        {"mem.cache_flush_lines", "count"},
        {"mem.host_ns_per_flushed_line", "ns"},
        {"cpu.costdb_build_s", "s"},
        {"cpu.instructions_retired", "count"},
        {"sim.parallel.jobs", "count"},
        {"sim.parallel.critical_path_s", "s"},
        {"sim.parallel.efficiency", "ratio"},
        {"sim.parallel.speedup", "x"},
        {"sim.json.dump_s", "s"},
        {"sim.json.dump_mb_per_s", "MB/s"},
        {"sim.json.parse_s", "s"},
        {"sim.json.parse_mb_per_s", "MB/s"},
        {"sim.json.bytes", "count"},
        {"sim.sampling.overhead_pct", "%"},
        {"sim.spantrace.host_ns_per_request", "ns"},
        {"trace.overhead_pct", "%"},
    };
    return units;
}

/** Mean |relative error| vs the paper, percent: the report's own
 *  summary, or for traffic the Table 1 primitive costs it charges. */
double
paperErrorPct(const Workload &w, const Iteration &it)
{
    if (w.kind != WorkloadKind::Traffic)
        return 100.0 * it.docs.front()
                           .at("summary")
                           .at("mean_abs_rel_error")
                           .asNumber();
    double sum = 0;
    int n = 0;
    for (const Figure &f : table1Figures()) {
        double err = f.relativeError();
        if (std::isnan(err))
            continue;
        sum += std::fabs(err);
        ++n;
    }
    return n ? 100.0 * sum / n : 0.0;
}

/** Peak resident set of this process image, MB. VmHWM, not
 *  ru_maxrss: Linux carries ru_maxrss across execve, so it would
 *  report the launching process's peak when that was larger. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

/** Per-layer metrics from the traced iterations and the probes. */
Metrics
layerMetrics(const Workload &w, const Iteration &first,
             const std::vector<StageTimes> &traced,
             double untraced_wall, double traced_wall, CheckTally &tally)
{
    // Median of each stage over the traced iterations.
    StageTimes st;
    for (const auto &[stage, ignored] : traced.front().wall) {
        std::vector<double> wall, cpu;
        for (const StageTimes &t : traced) {
            wall.push_back(t.get(stage));
            cpu.push_back(t.getCpu(stage));
        }
        st.wall[stage] = median(wall);
        st.cpu[stage] = median(cpu);
    }

    Metrics m;
    for (const char *stage :
         {"table7", "headlines", "kernel_window_figs", "other_figs",
          "timeseries", "kernel_windows_doc", "spans", "primitive_docs",
          "dashboard", "traffic"})
        m[std::string("study.") + stage + "_s"] = st.get(stage);
    double grid_bound = st.get("table7") + st.get("headlines") +
                        st.get("kernel_window_figs") +
                        st.get("kernel_windows_doc") +
                        st.get("timeseries");
    m["study.grid_bound_pct"] = 100.0 * grid_bound / traced_wall;

    EventCounts ev = countEvents(first);
    m["os.kernel_events"] = ev.kernelEvents;
    m["os.context_switches"] = ev.contextSwitches;
    m["os.pte_changes"] = ev.pteChanges;
    m["workload.host_ns_per_kernel_event"] =
        ev.kernelEvents > 0 ? 1e9 * untraced_wall / ev.kernelEvents : 0;

    double bytes = 0;
    for (const std::string &t : first.texts)
        bytes += static_cast<double>(t.size());
    double dump_s = st.get("json_dump"), parse_s = st.get("json_parse");
    m["sim.json.bytes"] = bytes;
    m["sim.json.dump_s"] = dump_s;
    m["sim.json.parse_s"] = parse_s;
    m["sim.json.dump_mb_per_s"] = dump_s > 0 ? bytes / 1e6 / dump_s : 0;
    m["sim.json.parse_mb_per_s"] = parse_s > 0 ? bytes / 1e6 / parse_s : 0;

    double requests = 0;
    for (std::size_t i = 0; i < first.names.size(); ++i)
        if (first.names[i] == "spans")
            for (const auto &[machine, prims] :
                 first.docs[i].at("machines").items())
                for (const auto &[prim, cell] : prims.items())
                    requests += cell.at("requests").asNumber();
    m["sim.spantrace.host_ns_per_request"] =
        requests > 0 ? 1e9 * st.get("spans") / requests : 0;

    m["trace.overhead_pct"] = 100.0 * (traced_wall / untraced_wall - 1.0);

    runProbes(w, first, st, untraced_wall, m, tally);
    return m;
}

/** Record the digests of the seed-0 documents that have no golden. */
int
recordDigests(const std::string &path)
{
    Json out = Json::object();
    for (const char *name : {"traffic", "pipeline"}) {
        Workload w;
        makeWorkload(name, 0, w);
        ParallelRunner runner(w.jobs);
        Iteration it = runIteration(w, runner, nullptr);
        for (std::size_t i = 0; i < it.names.size(); ++i) {
            const std::string &doc = it.names[i];
            if (doc == "timeseries" || doc == "kernel_windows" ||
                doc.rfind("traffic.", 0) == 0)
                out.set(doc, Json(digest(it.texts[i])));
        }
    }
    std::ofstream f(path);
    f << out.dump(1) << "\n";
    return f ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        usage();
        return 2;
    }
    if (!args.recordDigests.empty())
        return recordDigests(args.recordDigests);

    Workload w;
    if (!makeWorkload(args.workload, args.seed, w)) {
        usage();
        return 2;
    }

    std::printf("ENV {\"nproc\": %ld, \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"pipeline_jobs\": %u}\n",
                sysconf(_SC_NPROCESSORS_ONLN), __VERSION__,
                PERFBENCH_BUILD_TYPE, pipelineJobs());

    CheckTally tally;
    std::vector<std::string> problems = buildProblems();
    if (!problems.empty()) {
        for (const std::string &p : problems)
            std::fprintf(stderr, "refusing to time: %s\n", p.c_str());
        tally.check(false, "build guard");
        printResult(tally, {}, metricUnits());
        return 1;
    }

    // Set-up: everything before the first workload call.
    sharedCostDb();
    References refs;
    std::string error = loadReferences(goldenDir, digestPath, refs);
    if (!error.empty()) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 2;
    }
    ParallelRunner runner(w.jobs);
    // CPU time since exec: loading, sharedCostDb, the references.
    std::printf("READY %.9f\n", cpuNow());
    std::fflush(stdout);
    if (args.setupOnly)
        return 0;

    // Closed loop, one caller, no think time. Iteration 0 warms up
    // (checked, not timed). A traced run then alternates untraced and
    // traced iterations so the tracing cost is measured too; each
    // traced one is followed by the serial-grid probe.
    std::vector<double> wall, cpu, traced_wall;
    std::vector<StageTimes> traced;
    Iteration first;
    std::vector<std::string> first_digests;
    const double start = wallNow();
    for (int k = 0;; ++k) {
        bool trace_this = args.trace && k > 0 && k % 2 == 0;
        StageTimes st;
        double w0 = wallNow(), c0 = cpuNow();
        Iteration it = runIteration(w, runner, trace_this ? &st : nullptr);
        double dw = wallNow() - w0, dc = cpuNow() - c0;
        if (trace_this) {
            timeSerialGrids(w, st);
            traced.push_back(st);
            traced_wall.push_back(dw);
        } else if (k > 0) {
            wall.push_back(dw);
            cpu.push_back(dc);
        }
        checkIteration(w, it, refs, first_digests, tally);
        if (k == 0) {
            first_digests = iterationDigests(it);
            first = std::move(it);
        }
        bool enough = args.trace ? !traced.empty() : wall.size() >= 3;
        if (enough && wallNow() - start >= args.seconds)
            break;
    }
    std::fprintf(stderr, "iteration wall s:");
    for (double s : wall)
        std::fprintf(stderr, " %.4f", s);
    std::fprintf(stderr, "\n");

    Metrics m;
    double wall_s = median(wall);
    if (args.trace) {
        m = layerMetrics(w, first, traced, wall_s, median(traced_wall),
                         tally);
    } else {
        m["wall_s"] = wall_s;
        m["cpu_s"] = median(cpu);
        m["sim_events_per_s"] = countEvents(first).kernelEvents / wall_s;
        m["paper_err_pct"] = paperErrorPct(w, first);
        m["peak_rss_mb"] = peakRssMb();
    }
    for (std::size_t i = 0; i < tally.messages.size() && i < 20; ++i)
        std::fprintf(stderr, "CHECK FAILED: %s\n",
                     tally.messages[i].c_str());
    std::fprintf(stderr,
                 "%s: %zu iterations, %llu/%llu checks failed "
                 "(failed_ops_pct %.3f)\n",
                 w.name.c_str(), wall.size() + traced.size(),
                 static_cast<unsigned long long>(tally.failed),
                 static_cast<unsigned long long>(tally.attempted),
                 100.0 * static_cast<double>(tally.failed) /
                     static_cast<double>(tally.attempted));
    printResult(tally, m, metricUnits());
    return 0;
}
