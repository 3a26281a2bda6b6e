/**
 * @file
 * aosd_dashboard: render the unified observability site from the
 * measurement documents of one run.
 *
 *   aosd_dashboard --out site \
 *     --report report.json --counters counters.json \
 *     --kernel-windows kernel_windows.json --profile profile.json \
 *     --spans spans.json --traffic open.json --traffic closed.json \
 *     --db perfdb.jsonl
 *
 * Every input is optional: missing documents render as "not
 * provided", so a partial run still gets a complete site. The output
 * is a self-contained multi-page static site (inline SVG/CSS, no
 * scripts, no external assets) plus manifest.json, byte-identical at
 * any --jobs value — CI cmp-gates --jobs 1 against --jobs 8.
 *
 * The internal-link check always runs: a site with a dangling href or
 * anchor is refused (exit 1), not written.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "sim/cli.hh"
#include "sim/parallel/parallel_runner.hh"
#include "sim/perfdb/perfdb.hh"
#include "study/dashboard/dashboard.hh"

using namespace aosd;

int
main(int argc, char **argv)
{
    std::string out_dir;
    std::string report_path, counters_path, kw_path, profile_path,
        spans_path, db_path;
    std::vector<std::string> traffic_paths;
    unsigned jobs = ParallelRunner::defaultJobs();
    DashboardOptions opts;

    Cli cli("--out DIR [inputs] [options]");
    cli.text("--report", "path", "report.json (aosd_report --json)",
             report_path)
        .text("--counters", "path", "counters.json (aosd_counters --json)",
              counters_path)
        .text("--kernel-windows", "path",
              "kernel_windows.json (aosd_counters --kernel-windows)",
              kw_path)
        .text("--profile", "path", "profile.json (aosd_profile --json)",
              profile_path)
        .text("--spans", "path", "spans.json (aosd_spans --json)",
              spans_path)
        .text("--traffic", "path",
               "traffic.json (aosd_traffic --json), one per sweep",
               traffic_paths)
        .text("--db", "path", "perfdb.jsonl (aosd_trend ingest)", db_path)
        .text("--out", "DIR", "output directory (required)", out_dir)
        .jobs(jobs)
        .number("--tol", "F",
                "history rolling-band relative tolerance (default 0.05)",
                opts.relTol, 0)
        .whole("--baseline", "N",
               "history rolling-band window (default 20)",
               opts.baselineWindow)
        .whole("--last", "N", "sparkline points per metric (default 50)",
               opts.historyLast)
        .whole("--metrics-cap", "N",
               "per-metric rows on the history page (default 400; 0 = "
               "unlimited)",
               opts.historyCap)
        .text("--filter", "list",
              "comma-separated substring filter for history metrics",
              opts.historyFilter)
        .text("--skip", "list",
              "comma-separated substring skip list for history metrics",
              opts.historySkip);
    if (auto rc = cli.parseOrExit(argc, argv))
        return *rc;
    if (out_dir.empty()) {
        std::fprintf(stderr, "%s: --out is required\n", argv[0]);
        return 2;
    }

    // A given input must parse: a truncated artifact fails loudly,
    // never renders as a half-empty site.
    DashboardInputs in;
    Json report, counters, kernel_windows, profile, spans;
    std::vector<Json> traffic(traffic_paths.size());
    if (!readJsonFile(report_path, report, in.report) ||
        !readJsonFile(counters_path, counters, in.counters) ||
        !readJsonFile(kw_path, kernel_windows, in.kernelWindows) ||
        !readJsonFile(profile_path, profile, in.profile) ||
        !readJsonFile(spans_path, spans, in.spans))
        return 1;
    for (std::size_t i = 0; i < traffic_paths.size(); ++i) {
        if (!readJsonFile(traffic_paths[i], traffic[i]))
            return 1;
        in.traffic.push_back(&traffic[i]);
    }

    PerfDb db;
    if (!db_path.empty()) {
        std::string error;
        if (!db.load(db_path, &error)) {
            std::fprintf(stderr, "%s: %s\n", db_path.c_str(),
                         error.c_str());
            return 1;
        }
        in.db = &db;
    }

    ParallelRunner runner(jobs);
    DashboardSite site = buildDashboardSite(in, opts, runner);

    std::vector<std::string> problems = validateDashboardLinks(site);
    if (!problems.empty()) {
        for (const std::string &p : problems)
            std::fprintf(stderr, "link check: %s\n", p.c_str());
        std::fprintf(stderr,
                     "%zu dangling link(s); site not written\n",
                     problems.size());
        return 1;
    }

    std::string error;
    if (!writeDashboardSite(site, out_dir, &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
    }
    std::fprintf(stderr, "site -> %s (%zu pages + manifest.json)\n",
                 out_dir.c_str(), site.pages.size());
    return 0;
}
