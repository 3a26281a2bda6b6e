/**
 * @file
 * Shared types of the repository benchmark.
 *
 * The benchmark runs one workload (report, traffic or pipeline) in a
 * closed loop through the library's public entry points, checks every
 * document it produces, and reports host time. A traced run also
 * times each stage and a set of layer probes: benchmark calls into a
 * single layer's public functions (the Table-7 grid, one traffic cell,
 * the kernel's primitive entry points, a fresh PrimitiveCostDb).
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/json.hh"
#include "sim/parallel/parallel_runner.hh"
#include "study/span_report.hh"
#include "workload/traffic.hh"

namespace perfbench
{

/** Monotonic wall clock, seconds. */
double wallNow();

/** User + system CPU time of the whole process (all threads), s. */
double cpuNow();

/** Median of `v` (0 when empty). */
double median(std::vector<double> v);

/** Per-stage host time, summed over the stage's calls. */
struct StageTimes
{
    std::map<std::string, double> wall;
    std::map<std::string, double> cpu;

    /** Run `fn`, adding its wall and CPU time to `stage`. */
    template <typename F>
    void
    time(const std::string &stage, F &&fn)
    {
        double w0 = wallNow(), c0 = cpuNow();
        fn();
        wall[stage] += wallNow() - w0;
        cpu[stage] += cpuNow() - c0;
    }

    double get(const std::string &stage) const;
    double getCpu(const std::string &stage) const;
};

/** Time `fn` into `st` under `stage` when tracing, else just run it. */
template <typename F>
void
timed(StageTimes *st, const std::string &stage, F &&fn)
{
    if (st)
        st->time(stage, fn);
    else
        fn();
}

/** One traffic sweep of a workload. */
struct Sweep
{
    std::string name; ///< "open_uniform", "closed_uniform", ...
    aosd::TrafficConfig config;
};

enum class WorkloadKind
{
    Report,
    Traffic,
    Pipeline,
};

/** Everything one workload needs, built once before the loop. */
struct Workload
{
    WorkloadKind kind = WorkloadKind::Report;
    std::string name;
    std::uint64_t seed = 0;
    unsigned jobs = 1;
    /** Table-7 grid fan-outs one iteration runs. */
    unsigned gridRuns = 0;
    std::vector<Sweep> sweeps;
    aosd::SpanOptions spans;
};

/** Parse a workload name; false when unknown. */
bool makeWorkload(const std::string &name, std::uint64_t seed,
                  Workload &out);

/** Worker count of the pipeline workload: min(4, usable CPUs). */
unsigned pipelineJobs();

/** Every document one iteration produced, in a fixed order. */
struct Iteration
{
    std::vector<std::string> names;
    std::vector<aosd::Json> docs;
    /** dump(1) of each doc: the tool hand-off. */
    std::vector<std::string> texts;
    /** Json::parse of each text. */
    std::vector<aosd::Json> parsed;
    /** Dashboard pages (pipeline only) and its link-check result. */
    std::vector<std::string> pages;
    std::vector<std::string> linkProblems;
};

/**
 * Run one iteration of `w` on `runner`. With `st` set, each stage is
 * timed into it (the report is then built table by table, which gives
 * the same document as buildReport(runner)).
 */
Iteration runIteration(const Workload &w, aosd::ParallelRunner &runner,
                       StageTimes *st);

/** The parsed document named `name` of an iteration, or null. */
const aosd::Json *docNamed(const Iteration &it, const std::string &name);

/** Simulated-event totals read from the output documents. */
struct EventCounts
{
    double kernelEvents = 0;
    double contextSwitches = 0;
    double pteChanges = 0;
};

EventCounts countEvents(const Iteration &it);

/** The reference documents the checks compare against. */
struct References
{
    /** Golden name ("report", "counters", ...) -> committed bytes. */
    std::map<std::string, std::string> goldens;
    /** Document name -> FNV-1a digest recorded at seed 0. */
    std::map<std::string, std::string> digests;
};

/** Load tests/expected_*.json from `golden_dir` and the digest file.
 *  Returns an error message, empty on success. */
std::string loadReferences(const std::string &golden_dir,
                           const std::string &digest_path,
                           References &out);

/** 64-bit FNV-1a of `text` as 16 hex digits. */
std::string digest(const std::string &text);

/** Outcome of the output checks: one op per document or cell. */
struct CheckTally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> messages;

    void check(bool ok, const std::string &what);
};

/**
 * Check one iteration. The first (`first_digests` empty) is checked in
 * full: goldens and recorded digests (where the seed makes them
 * apply), 100% explained kernel-window cells, the spans tail
 * attribution, dump(parse(dump)) round trips and the dashboard link
 * check. Every later one must be byte-identical to the first.
 */
void checkIteration(const Workload &w, const Iteration &it,
                    const References &refs,
                    const std::vector<std::string> &first_digests,
                    CheckTally &tally);

/** Digests of every text and page of an iteration. */
std::vector<std::string> iterationDigests(const Iteration &it);

/** Per-layer metric name -> value. */
using Metrics = std::map<std::string, double>;

/** Time one serial Table-7 grid into `st` ("serial_grid"), and on the
 *  pipeline one sampled grid ("sampled_grid"); nothing on workloads
 *  that run no grid. A traced run calls it after each traced
 *  iteration, so grid and stages see the same host load. */
void timeSerialGrids(const Workload &w, StageTimes &st);

/**
 * Run the layer probes of a traced run and add their metrics.
 * `stages` holds the median stage and serial-grid times of the
 * traced iterations,
 * `wall_s` the median untraced iteration wall time (the speed-up's
 * base). The traffic probe's cells are checked into `tally`.
 */
void runProbes(const Workload &w, const Iteration &it,
               const StageTimes &stages, double wall_s, Metrics &out,
               CheckTally &tally);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
