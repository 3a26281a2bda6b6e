/**
 * @file
 * aosd_report: run every table/ablation computation and emit one
 * machine-readable report.
 *
 *   aosd_report                      # text summary to stdout
 *   aosd_report --json               # report.json to stdout
 *   aosd_report --json report.json   # ... to a file
 *   aosd_report --trace trace.json   # also write a chrome://tracing
 *                                    # timeline of the whole run
 *   aosd_report --jobs 8             # fan the figure grid over 8
 *                                    # worker threads
 *   aosd_report --timeseries timeseries.json
 *                                    # also sample the long-running
 *                                    # workloads into per-interval
 *                                    # event-rate series
 *   aosd_report --spans spans.json   # also span-trace the request
 *                                    # study (latency percentiles +
 *                                    # tail attribution)
 *
 * The report covers Tables 1-7 plus the paper's headline prose
 * figures; every entry carries the simulated value, the paper's value
 * where the paper gives one, and the relative error. CI regenerates
 * the report on every commit and fails if any figure drifts from the
 * checked-in snapshot (tests/test_report_regression.cc).
 *
 * report.json is byte-identical at any --jobs value (CI diffs
 * --jobs 1 against --jobs 8); --trace forces --jobs 1 because the
 * timeline of one run interleaved across workers is not a timeline.
 */

#include <cstdio>
#include <string>

#include "sim/cli.hh"
#include "sim/logging.hh"
#include "sim/parallel/parallel_runner.hh"
#include "sim/table.hh"
#include "sim/trace.hh"
#include "study/figures.hh"
#include "study/report.hh"
#include "study/span_report.hh"
#include "study/timeseries_report.hh"

using namespace aosd;

namespace
{

void
printTextSummary(const Json &report)
{
    std::printf("aosd_report: simulated figures vs the paper\n\n");
    for (const auto &tkv : report.at("tables").items()) {
        const Json &figs = tkv.second.at("figures");
        TextTable t;
        t.header({"figure", "unit", "sim", "paper", "rel err"});
        for (std::size_t i = 0; i < figs.size(); ++i) {
            const Json &f = figs.at(i);
            const Json *paper = f.find("paper");
            const Json *err = f.find("rel_error");
            t.row({f.at("id").asString(), f.at("unit").asString(),
                   TextTable::num(f.at("sim").asNumber(), 3),
                   paper ? TextTable::num(paper->asNumber(), 3) : "-",
                   err ? TextTable::num(100.0 * err->asNumber(), 1) +
                             "%"
                       : "-"});
        }
        std::printf("%s\n%s\n", tkv.first.c_str(),
                    t.render().c_str());
    }
    const Json &s = report.at("summary");
    std::printf("figures: %llu  with paper value: %llu\n",
                static_cast<unsigned long long>(
                    s.at("figures").asUint()),
                static_cast<unsigned long long>(
                    s.at("with_paper").asUint()));
    if (s.has("mean_abs_rel_error"))
        std::printf("mean |rel err|: %.1f%%   max |rel err|: %.1f%% "
                    "(%s)\n",
                    100.0 * s.at("mean_abs_rel_error").asNumber(),
                    100.0 * s.at("max_abs_rel_error").asNumber(),
                    s.at("worst_figure").asString().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    bool json_out = false;
    std::string json_path;
    std::string trace_path;
    std::string timeseries_path;
    std::string spans_path;
    unsigned jobs = ParallelRunner::defaultJobs();

    Cli cli;
    cli.optionalText("--json", "path",
                     "write report.json (stdout when no path)", json_out,
                     json_path)
        .text("--trace", "path",
              "write a chrome://tracing timeline (forces --jobs 1)",
              trace_path)
        .text("--timeseries", "path",
              "sample the workloads and write timeseries.json "
              "(per-interval event rates)",
              timeseries_path)
        .text("--spans", "path",
              "span-trace the request study and write spans.json "
              "(latency percentiles, slowest-request exemplars, tail "
              "attribution)",
              spans_path)
        .jobs(jobs);
    if (auto rc = cli.parseOrExit(argc, argv))
        return *rc;

    if (!trace_path.empty() && jobs != 1) {
        std::fprintf(stderr,
                     "--trace forces --jobs 1 (a timeline interleaved "
                     "across workers is not a timeline)\n");
        jobs = 1;
    }

    if (!trace_path.empty())
        Tracer::instance().enable(1 << 16);

    ParallelRunner runner(jobs);
    Json report = buildReport(runner);

    if (!timeseries_path.empty() &&
        !writeOutput(timeseries_path, buildTimeseriesDoc(runner).dump(1),
                     "timeseries"))
        return 1;
    if (!spans_path.empty() &&
        !writeOutput(spans_path, buildSpansDoc(runner).dump(1), "spans"))
        return 1;

    if (!trace_path.empty()) {
        Tracer::instance().disable();
        if (!writeFile(trace_path,
                       Tracer::instance().exportChromeTracing()))
            return 1;
        std::fprintf(stderr, "trace: %zu records (%llu dropped) -> %s\n",
                     Tracer::instance().size(),
                     static_cast<unsigned long long>(
                         Tracer::instance().dropped()),
                     trace_path.c_str());
    }

    if (!json_out)
        printTextSummary(report);
    else if (!writeOutput(json_path, report.dump(1), "report"))
        return 1;
    return 0;
}
