/**
 * @file
 * The three workloads, each one closed-loop iteration of library
 * calls, and the event counts read back from their documents.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>

#include "arch/machines.hh"
#include "perfbench.hh"
#include "study/counters_report.hh"
#include "study/dashboard/dashboard.hh"
#include "study/figures.hh"
#include "study/profile_report.hh"
#include "study/report.hh"
#include "study/timeseries_report.hh"

using namespace aosd;

namespace perfbench
{

double
wallNow()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

double
cpuNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
StageTimes::get(const std::string &stage) const
{
    auto it = wall.find(stage);
    return it == wall.end() ? 0.0 : it->second;
}

double
StageTimes::getCpu(const std::string &stage) const
{
    auto it = cpu.find(stage);
    return it == cpu.end() ? 0.0 : it->second;
}

unsigned
pipelineJobs()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    unsigned cpus = 1;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        cpus = static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
    return std::min(4u, cpus);
}

namespace
{

Sweep
sweep(const char *name, TrafficMode mode, TrafficArrival arrival,
      std::uint64_t seed)
{
    Sweep s;
    s.name = name;
    s.config.mode = mode;
    s.config.arrival = arrival;
    // Seed 0 is the library default, so its documents are the ones the
    // tools emit and the recorded digests apply.
    s.config.seed += seed;
    return s;
}

/** The report, built as buildReport(runner) does, one table builder
 *  at a time so each can be timed. */
Json
tracedReport(ParallelRunner &runner, StageTimes &st)
{
    using Builder = std::vector<Figure> (*)(ParallelRunner &);
    struct Part
    {
        Builder fn;
        const char *stage;
    };
    static const Part parts[] = {
        {table1Figures, "other_figs"},
        {table2Figures, "other_figs"},
        {table3Figures, "other_figs"},
        {table4Figures, "other_figs"},
        {table5Figures, "other_figs"},
        {table6Figures, "other_figs"},
        {table7Figures, "table7"},
        {headlineFigures, "headlines"},
        {countersFigures, "other_figs"},
        {kernelWindowFigures, "kernel_window_figs"},
        {calibrationFigures, "other_figs"},
    };
    std::vector<Figure> figures;
    for (const Part &p : parts)
        st.time(p.stage, [&] {
            std::vector<Figure> part = p.fn(runner);
            figures.insert(figures.end(), part.begin(), part.end());
        });
    Json doc;
    st.time("other_figs", [&] { doc = buildReport(figures); });
    return doc;
}

void
addDoc(Iteration &it, std::string name, Json doc)
{
    it.names.push_back(std::move(name));
    it.docs.push_back(std::move(doc));
}

/** The dashboard site from the parsed documents, as aosd_dashboard
 *  renders it (no perf database), plus its link check. */
void
buildDashboard(Iteration &it, ParallelRunner &runner)
{
    DashboardInputs in;
    in.report = docNamed(it, "report");
    in.counters = docNamed(it, "counters");
    in.kernelWindows = docNamed(it, "kernel_windows");
    in.profile = docNamed(it, "profile");
    in.spans = docNamed(it, "spans");
    for (std::size_t i = 0; i < it.names.size(); ++i)
        if (it.names[i].rfind("traffic.", 0) == 0)
            in.traffic.push_back(&it.parsed[i]);
    DashboardSite site = buildDashboardSite(in, {}, runner);
    it.linkProblems = validateDashboardLinks(site);
    for (const DashboardPage &p : site.pages)
        it.pages.push_back(p.file + "\n" + p.html);
    it.pages.push_back("manifest.json\n" + site.manifest.dump(1));
}

} // namespace

const Json *
docNamed(const Iteration &it, const std::string &name)
{
    for (std::size_t i = 0; i < it.names.size(); ++i)
        if (it.names[i] == name)
            return &it.parsed[i];
    return nullptr;
}

bool
makeWorkload(const std::string &name, std::uint64_t seed, Workload &w)
{
    w.name = name;
    w.seed = seed;
    w.spans.seed += seed;
    if (name == "report") {
        w.kind = WorkloadKind::Report;
        // table7Figures, headlineFigures, kernelWindowFigures.
        w.gridRuns = 3;
    } else if (name == "traffic") {
        w.kind = WorkloadKind::Traffic;
        w.sweeps = {
            sweep("open_uniform", TrafficMode::Open,
                  TrafficArrival::Uniform, seed),
            sweep("open_bursty", TrafficMode::Open,
                  TrafficArrival::Bursty, seed),
            sweep("closed_uniform", TrafficMode::Closed,
                  TrafficArrival::Uniform, seed),
        };
    } else if (name == "pipeline") {
        w.kind = WorkloadKind::Pipeline;
        w.jobs = pipelineJobs();
        // The report's three, the timeseries and the kernel windows.
        w.gridRuns = 5;
        w.sweeps = {
            sweep("open_uniform", TrafficMode::Open,
                  TrafficArrival::Uniform, seed),
            sweep("open_bursty", TrafficMode::Open,
                  TrafficArrival::Bursty, seed),
            sweep("open_diurnal", TrafficMode::Open,
                  TrafficArrival::Diurnal, seed),
        };
    } else {
        return false;
    }
    return true;
}

Iteration
runIteration(const Workload &w, ParallelRunner &runner, StageTimes *st)
{
    Iteration it;
    const bool pipeline = w.kind == WorkloadKind::Pipeline;

    if (w.kind != WorkloadKind::Traffic)
        addDoc(it, "report",
               st ? tracedReport(runner, *st) : buildReport(runner));

    if (pipeline) {
        timed(st, "timeseries", [&] {
            addDoc(it, "timeseries", buildTimeseriesDoc(runner));
        });
        timed(st, "primitive_docs", [&] {
            const std::vector<MachineDesc> machines = table1Machines();
            const unsigned reps = 16;
            addDoc(it, "counters",
                   buildCountersDoc(
                       countAllPrimitives(machines, reps, runner), reps));
            addDoc(it, "profile",
                   buildProfileDoc(
                       machines,
                       profileAllPrimitives(machines, reps, runner),
                       reps));
        });
        timed(st, "kernel_windows_doc", [&] {
            addDoc(it, "kernel_windows",
                   buildKernelWindowsDoc(makeMachine(MachineId::R3000),
                                         runner));
        });
        timed(st, "spans", [&] {
            addDoc(it, "spans", buildSpansDoc(runner, w.spans));
        });
    }

    for (const Sweep &s : w.sweeps)
        timed(st, "traffic", [&] {
            addDoc(it, "traffic." + s.name,
                   buildTrafficDoc(s.config, runner));
        });

    // The tool hand-off: every document written as text and read back.
    timed(st, "json_dump", [&] {
        for (const Json &d : it.docs)
            it.texts.push_back(d.dump(1));
    });
    timed(st, "json_parse", [&] {
        for (const std::string &t : it.texts)
            it.parsed.push_back(Json::parse(t));
    });

    if (pipeline)
        timed(st, "dashboard", [&] { buildDashboard(it, runner); });
    return it;
}

namespace
{

/** Event terms of a kernel-window reconciliation ("<x>_cycles" terms
 *  are charged cycles, not events). */
void
addReconciliation(const Json &rec, EventCounts &c)
{
    const Json *terms = rec.find("terms");
    if (!terms || !terms->isObject())
        return;
    for (const auto &[name, term] : terms->items()) {
        const Json *count = term.find("count");
        bool charged_cycles =
            name.size() >= 7 &&
            name.compare(name.size() - 7, 7, "_cycles") == 0;
        if (!count || charged_cycles)
            continue;
        double n = count->asNumber();
        c.kernelEvents += n;
        if (name == "thread_switches")
            c.contextSwitches += n;
        else if (name == "pte_changes")
            c.pteChanges += n;
    }
}

/** Every kernel-window reconciliation anywhere under `node`. */
void
walkReconciliations(const Json &node, EventCounts &c)
{
    if (node.isArray()) {
        for (std::size_t i = 0; i < node.size(); ++i)
            walkReconciliations(node.at(i), c);
        return;
    }
    if (!node.isObject())
        return;
    for (const auto &[name, child] : node.items()) {
        if (name == "kernel_window" ||
            (name == "reconciliation" && child.has("terms")))
            addReconciliation(child, c);
        else
            walkReconciliations(child, c);
    }
}

/** Table 7's counted reliance columns in report.json. */
void
addTable7(const Json &report, EventCounts &c)
{
    const Json *tables = report.find("tables");
    const Json *t7 = tables ? tables->find("table7") : nullptr;
    if (!t7)
        return;
    const Json &figs = t7->at("figures");
    for (std::size_t i = 0; i < figs.size(); ++i) {
        const Json &f = figs.at(i);
        if (f.at("unit").asString() != "count")
            continue;
        const std::string &id = f.at("id").asString();
        double n = f.at("sim").asNumber();
        c.kernelEvents += n;
        if (id.rfind("addr_space_switches.", 0) == 0 ||
            id.rfind("thread_switches.", 0) == 0)
            c.contextSwitches += n;
    }
}

} // namespace

EventCounts
countEvents(const Iteration &it)
{
    EventCounts c;
    // counters.json and profile.json reconcile single primitives, not
    // kernel windows; spans.json prices request-to-request gaps.
    for (std::size_t i = 0; i < it.names.size(); ++i) {
        const std::string &name = it.names[i];
        if (name == "report")
            addTable7(it.docs[i], c);
        else if (name == "kernel_windows" || name == "timeseries" ||
                 name.rfind("traffic.", 0) == 0)
            walkReconciliations(it.docs[i], c);
    }
    return c;
}

} // namespace perfbench
