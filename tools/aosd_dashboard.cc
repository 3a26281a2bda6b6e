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
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/numeric_flags.hh"
#include "sim/parallel/parallel_runner.hh"
#include "sim/perfdb/perfdb.hh"
#include "study/dashboard/dashboard.hh"

using namespace aosd;

namespace
{

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --out DIR [inputs] [options]\n"
        "inputs (each optional; its sections render as absent):\n"
        "  --report path          report.json (aosd_report --json)\n"
        "  --counters path        counters.json (aosd_counters "
        "--json)\n"
        "  --kernel-windows path  kernel_windows.json\n"
        "                         (aosd_counters --kernel-windows)\n"
        "  --profile path         profile.json (aosd_profile "
        "--json)\n"
        "  --spans path           spans.json (aosd_spans --json)\n"
        "  --traffic path         traffic.json (aosd_traffic "
        "--json);\n"
        "                         repeatable, one per sweep\n"
        "  --db path              perfdb.jsonl (aosd_trend ingest)\n"
        "options:\n"
        "  --out DIR              output directory (required)\n"
        "  --jobs N               worker threads, at most 1024 "
        "(default:\n"
        "                         all cores; 1 = serial; output is\n"
        "                         identical either way)\n"
        "  --tol F                history rolling-band relative\n"
        "                         tolerance (default 0.05)\n"
        "  --baseline N           history rolling-band window\n"
        "                         (default 20)\n"
        "  --last N               sparkline points per metric\n"
        "                         (default 50)\n"
        "  --metrics-cap N        per-metric rows on the history "
        "page\n"
        "                         (default 400; 0 = unlimited)\n"
        "  --filter list          comma-separated substring filter "
        "for\n"
        "                         history metrics\n"
        "  --skip list            comma-separated substring skip "
        "list\n",
        argv0);
}

/** Parse `path` as JSON into `slot`; a truncated artifact must fail
 *  loudly, never render as a half-empty site. */
bool
loadDoc(const std::string &path, Json &slot, bool &present)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot read %s\n", path.c_str());
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string error;
    slot = Json::parse(buf.str(), &error);
    if (slot.isNull() && !error.empty()) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                     error.c_str());
        return false;
    }
    present = true;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_dir;
    std::string report_path, counters_path, kw_path, profile_path,
        spans_path, db_path;
    std::vector<std::string> traffic_paths;
    unsigned jobs = ParallelRunner::defaultJobs();
    DashboardOptions opts;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto takesValue = [&](std::string &dst) {
            if (i + 1 >= argc) {
                usage(argv[0]);
                return false;
            }
            dst = argv[++i];
            return true;
        };
        std::string v;
        if (arg == "--out") {
            if (!takesValue(out_dir))
                return 2;
        } else if (arg == "--report") {
            if (!takesValue(report_path))
                return 2;
        } else if (arg == "--counters") {
            if (!takesValue(counters_path))
                return 2;
        } else if (arg == "--kernel-windows") {
            if (!takesValue(kw_path))
                return 2;
        } else if (arg == "--profile") {
            if (!takesValue(profile_path))
                return 2;
        } else if (arg == "--spans") {
            if (!takesValue(spans_path))
                return 2;
        } else if (arg == "--traffic") {
            if (!takesValue(v))
                return 2;
            traffic_paths.push_back(v);
        } else if (arg == "--db") {
            if (!takesValue(db_path))
                return 2;
        } else if (arg == "--jobs") {
            if (!takesValue(v))
                return 2;
            if (!parseJobs(v, jobs))
                return badFlag(argv[0], arg, v, jobsWant);
        } else if (arg == "--tol") {
            if (!takesValue(v))
                return 2;
            if (!parseNumber(v, opts.relTol) || opts.relTol < 0)
                return badFlag(argv[0], arg, v, "a number >= 0");
        } else if (arg == "--baseline") {
            if (!takesValue(v))
                return 2;
            if (!parseCount(v, opts.baselineWindow))
                return badFlag(argv[0], arg, v, "a whole number");
        } else if (arg == "--last") {
            if (!takesValue(v))
                return 2;
            if (!parseCount(v, opts.historyLast))
                return badFlag(argv[0], arg, v, "a whole number");
        } else if (arg == "--metrics-cap") {
            if (!takesValue(v))
                return 2;
            if (!parseCount(v, opts.historyCap))
                return badFlag(argv[0], arg, v, "a whole number");
        } else if (arg == "--filter") {
            if (!takesValue(opts.historyFilter))
                return 2;
        } else if (arg == "--skip") {
            if (!takesValue(opts.historySkip))
                return 2;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            usage(argv[0]);
            return 2;
        }
    }
    if (out_dir.empty()) {
        usage(argv[0]);
        return 2;
    }

    Json report, counters, kernel_windows, profile, spans;
    bool has_report = false, has_counters = false, has_kw = false,
         has_profile = false, has_spans = false;
    std::vector<Json> traffic(traffic_paths.size());
    if (!report_path.empty() &&
        !loadDoc(report_path, report, has_report))
        return 1;
    if (!counters_path.empty() &&
        !loadDoc(counters_path, counters, has_counters))
        return 1;
    if (!kw_path.empty() && !loadDoc(kw_path, kernel_windows, has_kw))
        return 1;
    if (!profile_path.empty() &&
        !loadDoc(profile_path, profile, has_profile))
        return 1;
    if (!spans_path.empty() &&
        !loadDoc(spans_path, spans, has_spans))
        return 1;
    for (std::size_t i = 0; i < traffic_paths.size(); ++i) {
        bool ok = false;
        if (!loadDoc(traffic_paths[i], traffic[i], ok))
            return 1;
    }

    PerfDb db;
    bool has_db = false;
    if (!db_path.empty()) {
        std::string error;
        if (!db.load(db_path, &error)) {
            std::fprintf(stderr, "%s: %s\n", db_path.c_str(),
                         error.c_str());
            return 1;
        }
        has_db = true;
    }

    DashboardInputs in;
    if (has_report)
        in.report = &report;
    if (has_counters)
        in.counters = &counters;
    if (has_kw)
        in.kernelWindows = &kernel_windows;
    if (has_profile)
        in.profile = &profile;
    if (has_spans)
        in.spans = &spans;
    for (const Json &t : traffic)
        in.traffic.push_back(&t);
    if (has_db)
        in.db = &db;

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
