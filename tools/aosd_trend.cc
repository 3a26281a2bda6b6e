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
#include <fstream>
#include <string>
#include <vector>

#include "sim/cli.hh"
#include "sim/numeric_flags.hh"
#include "sim/perfdb/perfdb.hh"
#include "study/trend_report.hh"

using namespace aosd;

namespace
{

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
    if (!readJsonFile(a.report, report, in.report) ||
        !readJsonFile(a.counters, counters, in.counters) ||
        !readJsonFile(a.kernelWindows, kw, in.kernelWindows) ||
        !readJsonFile(a.profile, profile, in.profile) ||
        !readJsonFile(a.timeseries, timeseries, in.timeseries) ||
        !readJsonFile(a.spans, spans, in.spans) ||
        !readJsonFile(a.traffic, traffic, in.traffic))
        return 2;
    for (std::size_t i = 0; i < a.bench.size(); ++i) {
        if (!readJsonFile(a.bench[i].second, bench_docs[i]))
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
    return writeOutput(a.out, html, "dashboard") ? 0 : 2;
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
    if (a.out.empty())
        text += "\n";
    if (!writeOutput(a.out, text, a.docName + " of " + rec->id()))
        return 2;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    // CI convenience: the commit is usually in the environment.
    a.commit = envOr("AOSD_COMMIT", envOr("GITHUB_SHA", ""));
    a.time = envOr("AOSD_TIME", "");

    Cli cli("<command> --db perfdb.jsonl [options]");
    cli.command(a.command,
                {{"ingest", "append one run's artifacts as a record"},
                 {"list", "one line per record (--json for the metadata)"},
                 {"metrics", "every metric path"},
                 {"query", "one metric's series and rolling stats"},
                 {"check",
                  "flag metrics outside their rolling band; exit 1 on "
                  "any flag"},
                 {"html", "static dashboard"},
                 {"export", "print one stored document"}})
        .text("--db", "path", "the perf database (required)", a.db)
        .text("--commit", "C",
              "ingest: the record's commit (default $AOSD_COMMIT, else "
              "$GITHUB_SHA)",
              a.commit)
        .text("--time", "T",
              "ingest: the record's timestamp (default $AOSD_TIME)",
              a.time)
        .text("--host", "H", "ingest: host label", a.host)
        .text("--flags", "F", "ingest: build-flags label", a.flags)
        .text("--report", "f", "ingest: report.json", a.report)
        .text("--counters", "f", "ingest: counters.json", a.counters)
        .text("--kernel-windows", "f", "ingest: kernel_windows.json",
              a.kernelWindows)
        .text("--profile", "f", "ingest: profile.json", a.profile)
        .text("--timeseries", "f", "ingest: timeseries.json",
              a.timeseries)
        .text("--spans", "f", "ingest: spans.json", a.spans)
        .text("--traffic", "f", "ingest: traffic.json", a.traffic)
        .keyValue("--bench", "suite=f",
                  "ingest: a google-benchmark document", "suite=path",
                  [&a](const std::string &suite, const std::string &f) {
                      a.bench.emplace_back(suite, f);
                      return true;
                  })
        .toggle("--replace", "ingest: supersede a recorded commit",
                a.replace)
        .text("--metric", "PATH", "query: the metric", a.metric)
        .text("--filter", "S", "metrics, check, html: substring list",
              a.filter)
        .text("--skip", "S", "check, html: substring skip list", a.skip)
        .text("--record", "REF",
              "export: an id, a commit (or unique prefix), 'latest', or "
              "-N (N runs back)",
              a.record)
        .text("--doc", "NAME", "export: the stored document", a.docName)
        .text("--out", "f", "html, export: write to f, not stdout", a.out)
        .optionalText("--json", "path",
                      "list, query: JSON to stdout; check: also write "
                      "the result to path",
                      a.json, a.jsonPath)
        .value("--tol", "TOL",
               "check, html: rolling-band tolerance, 5% or 0.05 "
               "(default 5%)",
               "e.g. 5% or 0.05",
               [&a](std::string v) {
                   bool percent = !v.empty() && v.back() == '%';
                   if (percent)
                       v.pop_back();
                   double t = 0;
                   if (!parseNumber(v, t) || t < 0)
                       return false;
                   a.tol = percent ? t / 100.0 : t;
                   return true;
               })
        .whole("--last", "N", "query, html: points shown", a.last)
        .whole("--baseline", "N",
               "query, check, html: rolling-band window (default 20)",
               a.baseline, 1)
        .whole("--top", "N", "check: flags printed (default 20, 0 = all)",
               a.top);
    if (auto rc = cli.parseOrExit(argc, argv))
        return *rc;
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
    return cmdExport(a, db);
}
