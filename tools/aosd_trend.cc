/**
 * @file
 * aosd_trend: the perf database front-end — ingest every run's
 * artifacts, query metric trends, flag regressions against the rolling
 * band, render the dashboard.
 *
 *   aosd_trend ingest --db perfdb.jsonl --commit abc123 \
 *       --time 2026-08-09T12:00:00Z --host ci --flags gcc-Rel \
 *       --report report.json --counters counters.json \
 *       --kernel-windows kernel_windows.json --profile profile.json \
 *       --timeseries timeseries.json --spans spans.json \
 *       --traffic traffic.json --bench simperf=BENCH.json
 *   aosd_trend list --db perfdb.jsonl
 *   aosd_trend metrics --db perfdb.jsonl --filter counters.SPARC
 *   aosd_trend query --db perfdb.jsonl \
 *       --metric counters.SPARC.context_switch.cycles_per_call \
 *       --last 50 [--json]
 *   aosd_trend check --db perfdb.jsonl --tol 5% [--json check.json]
 *   aosd_trend html --db perfdb.jsonl --out trend.html
 *   aosd_trend export --db perfdb.jsonl --record -1 --doc counters
 *
 * The database is append-only JSONL (sim/perfdb); ingest appends one
 * line, never rewrites history (except under --replace, which re-runs
 * a recorded commit explicitly). `check` exits 1 when any metric's
 * newest value falls outside max(tol x rolling median, 3 x MAD) of up
 * to --baseline prior runs, naming the offending record pair —
 * exactly what `aosd_bisect --db --from --to` wants. Exit 2 on usage
 * or I/O errors.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/json.hh"
#include "sim/numeric_flags.hh"
#include "sim/perfdb/perfdb.hh"
#include "study/trend_report.hh"

using namespace aosd;

namespace
{

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s <command> --db perfdb.jsonl [options]\n"
        "commands:\n"
        "  ingest   append one run's artifacts as a record\n"
        "           --commit C --time T [--host H] [--flags F]\n"
        "           [--report f] [--counters f] [--kernel-windows f]\n"
        "           [--profile f] [--timeseries f] [--spans f]\n"
        "           [--traffic f] [--bench suite=f]... [--replace]\n"
        "  list     one line per record (--json for the metadata)\n"
        "  metrics  every metric path ([--filter S] substring list)\n"
        "  query    one metric's series + rolling stats\n"
        "           --metric PATH [--last N] [--baseline N] [--json]\n"
        "  check    flag metrics outside their rolling band; exit 1\n"
        "           on any flag. [--tol 5%% | 0.05] [--baseline N]\n"
        "           [--filter S] [--skip S] [--top N] [--json path]\n"
        "  html     static dashboard [--out f] [--filter S]\n"
        "           [--skip S] [--last N] [--tol ..] [--baseline N]\n"
        "  export   print one stored document\n"
        "           --record REF --doc NAME [--out f]\n"
        "record REFs: an id, a commit (or unique prefix), 'latest',\n"
        "or -N (N runs back)\n",
        argv0);
}

bool
loadJsonFile(const std::string &path, Json &out)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot read %s\n", path.c_str());
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string error;
    out = Json::parse(buf.str(), &error);
    if (out.isNull() && !error.empty()) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                     error.c_str());
        return false;
    }
    return true;
}

bool
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     path.c_str());
        return false;
    }
    out << content;
    return true;
}

/** "5%" -> 0.05, "0.05" -> 0.05. */
bool
parseTolerance(const std::string &arg, double &out)
{
    bool percent = !arg.empty() && arg.back() == '%';
    double v = 0;
    if (!parseNumber(percent ? arg.substr(0, arg.size() - 1) : arg, v) ||
        v < 0)
        return false;
    out = percent ? v / 100.0 : v;
    return true;
}

struct Args
{
    std::string command;
    std::string db;
    std::string commit;
    std::string time;
    std::string host = "unknown";
    std::string flags = "unknown";
    std::string report, counters, kernelWindows, profile, timeseries,
        spans, traffic;
    std::vector<std::pair<std::string, std::string>> bench;
    bool replace = false;
    std::string metric;
    std::string filter, skip;
    std::string record, docName;
    std::string jsonPath;
    bool json = false;
    std::string out;
    double tol = 0.05;
    std::size_t last = 0;
    std::size_t baseline = 20;
    std::size_t top = 20;
};

const char *
envOr(const char *name, const char *fallback)
{
    const char *v = std::getenv(name);
    return v && *v ? v : fallback;
}

int
cmdIngest(const Args &a)
{
    if (a.commit.empty() || a.time.empty()) {
        std::fprintf(stderr,
                     "ingest: --commit and --time are required (they "
                     "key the record; pass the commit's own "
                     "timestamp so re-ingest is reproducible)\n");
        return 2;
    }

    Json report, counters, kw, profile, timeseries, spans, traffic;
    std::vector<Json> bench_docs(a.bench.size());
    PerfDbRecordInputs in;
    if (!a.report.empty()) {
        if (!loadJsonFile(a.report, report))
            return 2;
        in.report = &report;
    }
    if (!a.counters.empty()) {
        if (!loadJsonFile(a.counters, counters))
            return 2;
        in.counters = &counters;
    }
    if (!a.kernelWindows.empty()) {
        if (!loadJsonFile(a.kernelWindows, kw))
            return 2;
        in.kernelWindows = &kw;
    }
    if (!a.profile.empty()) {
        if (!loadJsonFile(a.profile, profile))
            return 2;
        in.profile = &profile;
    }
    if (!a.timeseries.empty()) {
        if (!loadJsonFile(a.timeseries, timeseries))
            return 2;
        in.timeseries = &timeseries;
    }
    if (!a.spans.empty()) {
        if (!loadJsonFile(a.spans, spans))
            return 2;
        in.spans = &spans;
    }
    if (!a.traffic.empty()) {
        if (!loadJsonFile(a.traffic, traffic))
            return 2;
        in.traffic = &traffic;
    }
    for (std::size_t i = 0; i < a.bench.size(); ++i) {
        if (!loadJsonFile(a.bench[i].second, bench_docs[i]))
            return 2;
        in.bench.emplace_back(a.bench[i].first, &bench_docs[i]);
    }
    if (!in.report && !in.counters && !in.kernelWindows &&
        !in.profile && !in.timeseries && !in.spans && !in.traffic &&
        in.bench.empty()) {
        std::fprintf(stderr,
                     "ingest: nothing to ingest (pass at least one "
                     "document)\n");
        return 2;
    }

    Json rec = buildPerfDbRecord(a.commit, a.time, a.host, a.flags,
                                 in);

    PerfDb db;
    std::string error;
    std::ifstream exists(a.db);
    if (exists && !db.load(a.db, &error)) {
        std::fprintf(stderr, "%s: %s\n", a.db.c_str(),
                     error.c_str());
        return 2;
    }

    std::string id = PerfDb::recordId(rec);
    if (a.replace && db.remove(id))
        std::fprintf(stderr, "replacing record %s\n", id.c_str());

    if (!db.append(rec, &error)) {
        std::fprintf(stderr, "%s: %s\n", a.db.c_str(),
                     error.c_str());
        return 2;
    }

    // Plain ingest appends the one new line; --replace rewrote
    // history, so the whole file is saved.
    bool ok;
    if (a.replace) {
        ok = db.save(a.db, &error);
    } else {
        std::ofstream out(a.db, std::ios::app);
        ok = static_cast<bool>(out << rec.dump() << '\n');
        if (!ok)
            error = "cannot append to " + a.db;
    }
    if (!ok) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 2;
    }
    std::printf("ingested %s (%zu record(s) in %s)\n", id.c_str(),
                db.size(), a.db.c_str());
    return 0;
}

int
cmdList(const Args &a, const PerfDb &db)
{
    if (a.json) {
        std::printf("%s\n", buildTrendListDoc(db).dump(1).c_str());
        return 0;
    }
    for (const PerfDbRecord &rec : db.records()) {
        std::string docs;
        for (const std::string &name : rec.docNames()) {
            if (!docs.empty())
                docs += ",";
            docs += name;
        }
        std::printf("%s  host=%s flags=%s  [%s]\n", rec.id().c_str(),
                    rec.host().c_str(), rec.buildFlags().c_str(),
                    docs.c_str());
    }
    std::printf("%zu record(s)\n", db.size());
    return 0;
}

int
cmdMetrics(const Args &a, const PerfDb &db)
{
    std::size_t shown = 0;
    for (const std::string &metric : allMetrics(db)) {
        if (!a.filter.empty() &&
            metric.find(a.filter) == std::string::npos)
            continue;
        std::printf("%s\n", metric.c_str());
        ++shown;
    }
    std::fprintf(stderr, "%zu metric(s)\n", shown);
    return 0;
}

int
cmdQuery(const Args &a, const PerfDb &db)
{
    if (a.metric.empty()) {
        std::fprintf(stderr, "query: --metric is required\n");
        return 2;
    }
    Json doc = buildTrendQueryDoc(db, a.metric, a.last, a.baseline);
    if (doc.at("points").size() == 0) {
        std::fprintf(stderr,
                     "no record carries metric %s (try "
                     "'aosd_trend metrics')\n",
                     a.metric.c_str());
        return 1;
    }
    if (a.json) {
        std::printf("%s\n", doc.dump(1).c_str());
        return 0;
    }
    std::printf("%s\n", a.metric.c_str());
    const Json &points = doc.at("points");
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Json &p = points.at(i);
        std::printf("  %-44s %12g", p.at("record").asString().c_str(),
                    p.at("value").asNumber());
        if (const Json *pct = p.find("delta_pct"))
            std::printf("  (%+.2f%%)", pct->asNumber());
        std::printf("\n");
    }
    const Json &r = doc.at("rolling");
    std::printf("rolling(%llu): median %g  mad %g  latest %g  "
                "(%+.2f%% vs median)\n",
                static_cast<unsigned long long>(
                    r.at("baseline_points").asUint()),
                r.at("median").asNumber(), r.at("mad").asNumber(),
                r.at("latest").asNumber(),
                r.at("pct_change_vs_median").asNumber());
    return 0;
}

int
cmdCheck(const Args &a, const PerfDb &db)
{
    TrendCheckResult result =
        checkTrends(db, a.tol, a.baseline, a.filter, a.skip);
    if (!a.jsonPath.empty() &&
        !writeFile(a.jsonPath, result.toJson().dump(1)))
        return 2;

    std::printf("aosd_trend check: %zu metric(s) checked, %zu "
                "skipped (no band yet), %zu flagged "
                "(band: max(%.3g%% of median, 3xMAD), baseline %zu)\n",
                result.metricsChecked, result.metricsSkipped,
                result.flags.size(), 100.0 * a.tol, a.baseline);
    std::size_t shown = 0;
    for (const TrendFlag &f : result.flags) {
        if (a.top != 0 && shown == a.top) {
            std::printf("  ... %zu more flag(s); rerun with --top 0 "
                        "for all\n",
                        result.flags.size() - shown);
            break;
        }
        ++shown;
        std::printf("  FLAG %s: %g -> %g (%+.2f%% vs rolling median, "
                    "band +-%g)\n       pair: %s -> %s\n",
                    f.metric.c_str(), f.median, f.latest, f.pctChange,
                    f.bandHalfWidth, f.fromId.c_str(),
                    f.toId.c_str());
    }
    if (!result.flags.empty())
        std::printf("hand a pair to: aosd_bisect --db %s --from "
                    "'%s' --to '%s'\n",
                    a.db.c_str(), result.flags[0].fromId.c_str(),
                    result.flags[0].toId.c_str());
    return result.ok() ? 0 : 1;
}

int
cmdHtml(const Args &a, const PerfDb &db)
{
    std::string html =
        renderTrendHtml(db, a.tol, a.baseline, a.filter, a.skip,
                        a.last == 0 ? 50 : a.last);
    if (a.out.empty()) {
        std::fputs(html.c_str(), stdout);
        return 0;
    }
    if (!writeFile(a.out, html))
        return 2;
    std::fprintf(stderr, "dashboard -> %s\n", a.out.c_str());
    return 0;
}

int
cmdExport(const Args &a, const PerfDb &db)
{
    if (a.record.empty() || a.docName.empty()) {
        std::fprintf(stderr,
                     "export: --record and --doc are required\n");
        return 2;
    }
    std::string error;
    const PerfDbRecord *rec = db.resolve(a.record, &error);
    if (!rec) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 2;
    }
    const Json *doc = rec->doc(a.docName);
    if (!doc) {
        std::string names;
        for (const std::string &n : rec->docNames()) {
            if (!names.empty())
                names += ", ";
            names += n;
        }
        std::fprintf(stderr,
                     "record %s has no document '%s' (has: %s)\n",
                     rec->id().c_str(), a.docName.c_str(),
                     names.c_str());
        return 2;
    }
    std::string text = doc->dump(1);
    if (a.out.empty()) {
        std::printf("%s\n", text.c_str());
        return 0;
    }
    if (!writeFile(a.out, text))
        return 2;
    std::fprintf(stderr, "%s of %s -> %s\n", a.docName.c_str(),
                 rec->id().c_str(), a.out.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage(argv[0]);
        return 2;
    }

    Args a;
    a.command = argv[1];
    // CI convenience: the commit is usually in the environment.
    a.commit = envOr("AOSD_COMMIT", envOr("GITHUB_SHA", ""));
    a.time = envOr("AOSD_TIME", "");

    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage(argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--db") {
            a.db = value();
        } else if (arg == "--commit") {
            a.commit = value();
        } else if (arg == "--time") {
            a.time = value();
        } else if (arg == "--host") {
            a.host = value();
        } else if (arg == "--flags") {
            a.flags = value();
        } else if (arg == "--report") {
            a.report = value();
        } else if (arg == "--counters") {
            a.counters = value();
        } else if (arg == "--kernel-windows") {
            a.kernelWindows = value();
        } else if (arg == "--profile") {
            a.profile = value();
        } else if (arg == "--timeseries") {
            a.timeseries = value();
        } else if (arg == "--spans") {
            a.spans = value();
        } else if (arg == "--traffic") {
            a.traffic = value();
        } else if (arg == "--bench") {
            std::string spec = value();
            std::size_t eq = spec.find('=');
            if (eq == std::string::npos || eq == 0 ||
                eq + 1 == spec.size()) {
                std::fprintf(stderr,
                             "--bench wants suite=path, got %s\n",
                             spec.c_str());
                return 2;
            }
            a.bench.emplace_back(spec.substr(0, eq),
                                 spec.substr(eq + 1));
        } else if (arg == "--replace") {
            a.replace = true;
        } else if (arg == "--metric") {
            a.metric = value();
        } else if (arg == "--filter") {
            a.filter = value();
        } else if (arg == "--skip") {
            a.skip = value();
        } else if (arg == "--record") {
            a.record = value();
        } else if (arg == "--doc") {
            a.docName = value();
        } else if (arg == "--out") {
            a.out = value();
        } else if (arg == "--json") {
            a.json = true;
            if (i + 1 < argc && argv[i + 1][0] != '-')
                a.jsonPath = argv[++i];
        } else if (arg == "--tol") {
            std::string v = value();
            if (!parseTolerance(v, a.tol))
                return badFlag(argv[0], arg, v, "e.g. 5% or 0.05");
        } else if (arg == "--last") {
            std::string v = value();
            if (!parseCount(v, a.last))
                return badFlag(argv[0], arg, v, "a whole number");
        } else if (arg == "--baseline") {
            std::string v = value();
            if (!parseCount(v, a.baseline) || a.baseline == 0)
                return badFlag(argv[0], arg, v, "a whole number >= 1");
        } else if (arg == "--top") {
            std::string v = value();
            if (!parseCount(v, a.top))
                return badFlag(argv[0], arg, v, "a whole number");
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            usage(argv[0]);
            return 2;
        }
    }

    if (a.command == "--help" || a.command == "-h" ||
        a.command == "help") {
        usage(argv[0]);
        return 0;
    }
    if (a.db.empty()) {
        std::fprintf(stderr, "--db is required\n");
        return 2;
    }

    if (a.command == "ingest")
        return cmdIngest(a);

    PerfDb db;
    std::string error;
    if (!db.load(a.db, &error)) {
        std::fprintf(stderr, "%s: %s\n", a.db.c_str(),
                     error.c_str());
        return 2;
    }

    if (a.command == "list")
        return cmdList(a, db);
    if (a.command == "metrics")
        return cmdMetrics(a, db);
    if (a.command == "query")
        return cmdQuery(a, db);
    if (a.command == "check")
        return cmdCheck(a, db);
    if (a.command == "html")
        return cmdHtml(a, db);
    if (a.command == "export")
        return cmdExport(a, db);

    std::fprintf(stderr, "unknown command: %s\n", a.command.c_str());
    usage(argv[0]);
    return 2;
}
