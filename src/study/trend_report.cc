#include "study/trend_report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <unordered_map>

#include "study/dashboard/html.hh"

namespace aosd
{

namespace
{

/** Top-level keys that are run metadata, not figures. */
bool
isMetadataKey(const std::string &key)
{
    return key == "schema_version" || key == "generator" ||
           key == "paper" || key == "machine" ||
           key == "machine_count" || key == "repetitions" ||
           key == "references" || key == "target_samples" ||
           key == "requests_per_pair" || key == "top_k";
}

/** Flatten `doc` under `prefix`, skipping top-level metadata keys. */
void
flattenDoc(const Json &doc, const std::string &prefix,
           std::vector<PerfLeaf> &out)
{
    if (!doc.isObject())
        return;
    for (const auto &[key, value] : doc.items()) {
        if (isMetadataKey(key))
            continue;
        for (PerfLeaf leaf : flattenNumericLeaves(value)) {
            leaf.path = leaf.path.empty()
                            ? prefix + key
                            : prefix + key + "." + leaf.path;
            out.push_back(std::move(leaf));
        }
    }
}

/**
 * report.json figures are arrays, so a plain flatten would address
 * them by index — unstable the moment a figure is inserted. Name them
 * by table and figure id instead, and keep only the simulated value
 * (the paper's value never changes and rel_error follows from the
 * two).
 */
void
flattenReportDoc(const Json &doc, std::vector<PerfLeaf> &out)
{
    const Json *tables = doc.find("tables");
    if (tables && tables->isObject()) {
        for (const auto &[tname, table] : tables->items()) {
            const Json *figs = table.find("figures");
            if (!figs || !figs->isArray())
                continue;
            for (std::size_t i = 0; i < figs->size(); ++i) {
                const Json &f = figs->at(i);
                const Json *id = f.find("id");
                const Json *sim = f.find("sim");
                if (!id || !id->isString() || !sim ||
                    !sim->isNumber() || std::isnan(sim->asNumber()))
                    continue;
                out.push_back({"report." + tname + "." +
                                   id->asString(),
                               sim->asNumber()});
            }
        }
    }
    const Json *summary = doc.find("summary");
    if (summary)
        for (PerfLeaf leaf : flattenNumericLeaves(*summary)) {
            leaf.path = "report.summary." + leaf.path;
            out.push_back(std::move(leaf));
        }
}

} // namespace

Json
spansDigest(const Json &doc)
{
    if (doc.isObject()) {
        Json out = Json::object();
        for (const auto &[key, value] : doc.items()) {
            if (key == "exemplars" || key == "spans")
                continue;
            out.set(key, spansDigest(value));
        }
        return out;
    }
    if (doc.isArray()) {
        Json out = Json::array();
        for (std::size_t i = 0; i < doc.size(); ++i)
            out.push(spansDigest(doc.at(i)));
        return out;
    }
    return doc;
}

Json
trafficDigest(const Json &doc)
{
    if (doc.isObject()) {
        Json out = Json::object();
        for (const auto &[key, value] : doc.items()) {
            if (key == "slowest_requests")
                continue;
            out.set(key, trafficDigest(value));
        }
        return out;
    }
    if (doc.isArray()) {
        Json out = Json::array();
        for (std::size_t i = 0; i < doc.size(); ++i)
            out.push(trafficDigest(doc.at(i)));
        return out;
    }
    return doc;
}

namespace
{

double
medianOf(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    if (n == 0)
        return 0;
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Comma-separated substring list match; empty list matches all. */
bool
matchesAny(const std::string &metric, const std::string &list,
           bool empty_matches)
{
    if (list.empty())
        return empty_matches;
    std::size_t start = 0;
    while (start <= list.size()) {
        std::size_t comma = list.find(',', start);
        std::string needle =
            list.substr(start, comma == std::string::npos
                                   ? std::string::npos
                                   : comma - start);
        if (!needle.empty() &&
            metric.find(needle) != std::string::npos)
            return true;
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return false;
}

bool
metricSelected(const std::string &metric, const std::string &filter,
               const std::string &skip)
{
    return matchesAny(metric, filter, true) &&
           !matchesAny(metric, skip, false);
}

/** metric -> value maps, one per record, built once per operation. */
std::vector<std::unordered_map<std::string, double>>
buildMetricTable(const PerfDb &db)
{
    std::vector<std::unordered_map<std::string, double>> table;
    table.reserve(db.size());
    for (const PerfDbRecord &rec : db.records()) {
        std::unordered_map<std::string, double> row;
        for (const PerfLeaf &leaf : recordMetrics(rec))
            row.emplace(leaf.path, leaf.value);
        table.push_back(std::move(row));
    }
    return table;
}

} // namespace

Json
buildPerfDbRecord(const std::string &commit,
                  const std::string &timestamp,
                  const std::string &host,
                  const std::string &buildFlags,
                  const PerfDbRecordInputs &in)
{
    Json rec = Json::object();
    rec.set("schema_version", Json(perfDbSchemaVersion));
    rec.set("kind", Json("aosd-perfdb-record"));
    rec.set("id", Json(commit + "@" + timestamp));
    rec.set("commit", Json(commit));
    rec.set("timestamp", Json(timestamp));
    rec.set("host", Json(host));
    rec.set("build_flags", Json(buildFlags));

    Json docs = Json::object();
    if (in.report)
        docs.set("report", *in.report);
    if (in.counters)
        docs.set("counters", *in.counters);
    if (in.kernelWindows)
        docs.set("kernel_windows", *in.kernelWindows);
    if (in.profile)
        docs.set("profile", *in.profile);
    if (in.timeseries)
        docs.set("timeseries_summary",
                 summarizeNumericArrays(*in.timeseries));
    if (in.spans)
        docs.set("spans", spansDigest(*in.spans));
    if (in.traffic)
        docs.set("traffic", trafficDigest(*in.traffic));
    if (!in.bench.empty()) {
        Json bench = Json::object();
        for (const auto &[suite, doc] : in.bench) {
            Json norm = Json::object();
            Json marks = Json::object();
            const Json *list = doc ? doc->find("benchmarks") : nullptr;
            if (list && list->isArray()) {
                // Raw google-benchmark output: keep the stable
                // per-benchmark figures, drop the run-local context.
                for (std::size_t i = 0; i < list->size(); ++i) {
                    const Json &b = list->at(i);
                    const Json *name = b.find("name");
                    if (!name || !name->isString())
                        continue;
                    Json entry = Json::object();
                    for (const char *key :
                         {"real_time", "cpu_time", "items_per_second",
                          "bytes_per_second"}) {
                        const Json *v = b.find(key);
                        if (v && v->isNumber())
                            entry.set(key, *v);
                    }
                    const Json *unit = b.find("time_unit");
                    if (unit && unit->isString())
                        entry.set("time_unit", *unit);
                    marks.set(name->asString(), std::move(entry));
                }
            } else if (list && list->isObject()) {
                // Already-digested documents: {name: figures}.
                marks = *list;
            } else if (doc) {
                // Arbitrary digest: store numeric content as-is.
                marks = *doc;
            }
            norm.set("benchmarks", std::move(marks));
            bench.set(suite, std::move(norm));
        }
        docs.set("bench", std::move(bench));
    }
    rec.set("docs", std::move(docs));
    return rec;
}

std::vector<PerfLeaf>
recordMetrics(const PerfDbRecord &rec)
{
    std::vector<PerfLeaf> out;
    if (const Json *report = rec.doc("report"))
        flattenReportDoc(*report, out);
    if (const Json *counters = rec.doc("counters")) {
        const Json *machines = counters->find("machines");
        if (machines)
            flattenDoc(*machines, "counters.", out);
    }
    if (const Json *kw = rec.doc("kernel_windows")) {
        const Json *cells = kw->find("cells");
        if (cells)
            flattenDoc(*cells, "kernel_windows.", out);
    }
    if (const Json *profile = rec.doc("profile"))
        flattenDoc(*profile, "profile.", out);
    if (const Json *ts = rec.doc("timeseries_summary"))
        flattenDoc(*ts, "timeseries.", out);
    if (const Json *spans = rec.doc("spans"))
        flattenDoc(*spans, "spans.", out);
    if (const Json *traffic = rec.doc("traffic")) {
        // traffic.<machine>.l<level index>.<cell figure> — machine
        // slug and level position instead of the raw array indices.
        const Json *machines = traffic->find("machines");
        if (machines && machines->isArray()) {
            for (std::size_t i = 0; i < machines->size(); ++i) {
                const Json &m = machines->at(i);
                const Json *slug = m.find("machine");
                const Json *levels = m.find("load_levels");
                if (!slug || !slug->isString() || !levels ||
                    !levels->isArray())
                    continue;
                for (std::size_t li = 0; li < levels->size(); ++li)
                    flattenDoc(levels->at(li),
                               "traffic." + slug->asString() + ".l" +
                                   std::to_string(li) + ".",
                               out);
            }
        }
    }
    for (const std::string &name : rec.docNames()) {
        if (name.rfind("bench.", 0) != 0)
            continue;
        const Json *suite = rec.doc(name);
        const Json *marks = suite ? suite->find("benchmarks")
                                  : nullptr;
        if (marks)
            flattenDoc(*marks, name + ".", out);
    }
    return out;
}

MetricSeries
metricSeries(const PerfDb &db, const std::string &metric,
             std::size_t last)
{
    MetricSeries series;
    series.metric = metric;
    for (std::size_t i = 0; i < db.size(); ++i) {
        const PerfDbRecord &rec = db.at(i);
        for (const PerfLeaf &leaf : recordMetrics(rec)) {
            if (leaf.path != metric)
                continue;
            series.points.push_back(
                {i, rec.id(), rec.commit(), leaf.value});
            break;
        }
    }
    if (last > 0 && series.points.size() > last)
        series.points.erase(series.points.begin(),
                            series.points.end() -
                                static_cast<std::ptrdiff_t>(last));
    return series;
}

std::vector<std::string>
allMetrics(const PerfDb &db)
{
    std::set<std::string> paths;
    for (const PerfDbRecord &rec : db.records())
        for (const PerfLeaf &leaf : recordMetrics(rec))
            paths.insert(leaf.path);
    return {paths.begin(), paths.end()};
}

RollingStats
rollingStats(const std::vector<double> &values,
             std::size_t baselineWindow)
{
    RollingStats s;
    if (values.empty())
        return s;
    s.latest = values.back();
    std::size_t prior = values.size() - 1;
    std::size_t used = std::min(prior, baselineWindow);
    s.baselinePoints = used;
    if (used == 0) {
        s.median = s.latest;
        return s;
    }
    std::vector<double> window(values.end() - 1 -
                                   static_cast<std::ptrdiff_t>(used),
                               values.end() - 1);
    s.median = medianOf(window);
    std::vector<double> dev;
    dev.reserve(window.size());
    for (double v : window)
        dev.push_back(std::fabs(v - s.median));
    s.mad = medianOf(dev);
    s.pctChange = s.median != 0
                      ? 100.0 * (s.latest - s.median) /
                            std::fabs(s.median)
                      : 0.0;
    return s;
}

Json
buildTrendQueryDoc(const PerfDb &db, const std::string &metric,
                   std::size_t last, std::size_t baselineWindow)
{
    MetricSeries series = metricSeries(db, metric, last);
    Json doc = Json::object();
    doc.set("schema_version", Json(1));
    doc.set("generator", Json("aosd_trend query"));
    doc.set("metric", Json(metric));

    Json points = Json::array();
    std::vector<double> values;
    for (const MetricPoint &p : series.points) {
        Json pt = Json::object();
        pt.set("record", Json(p.recordId));
        pt.set("commit", Json(p.commit));
        pt.set("value", Json(p.value));
        if (!values.empty()) {
            double prev = values.back();
            pt.set("delta", Json(p.value - prev));
            if (prev != 0)
                pt.set("delta_pct",
                       Json(100.0 * (p.value - prev) /
                            std::fabs(prev)));
        }
        values.push_back(p.value);
        points.push(std::move(pt));
    }
    doc.set("points", std::move(points));

    RollingStats stats = rollingStats(values, baselineWindow);
    Json rolling = Json::object();
    rolling.set("baseline_points",
                Json(static_cast<std::uint64_t>(
                    stats.baselinePoints)));
    rolling.set("median", Json(stats.median));
    rolling.set("mad", Json(stats.mad));
    rolling.set("latest", Json(stats.latest));
    rolling.set("pct_change_vs_median", Json(stats.pctChange));
    doc.set("rolling", std::move(rolling));
    return doc;
}

Json
buildTrendListDoc(const PerfDb &db)
{
    Json doc = Json::object();
    doc.set("schema_version", Json(1));
    doc.set("generator", Json("aosd_trend list"));
    Json arr = Json::array();
    for (const PerfDbRecord &rec : db.records()) {
        Json j = Json::object();
        j.set("id", Json(rec.id()));
        j.set("commit", Json(rec.commit()));
        j.set("timestamp", Json(rec.timestamp()));
        j.set("host", Json(rec.host()));
        j.set("build_flags", Json(rec.buildFlags()));
        Json docs = Json::array();
        for (const std::string &name : rec.docNames())
            docs.push(Json(name));
        j.set("docs", std::move(docs));
        arr.push(std::move(j));
    }
    doc.set("records", std::move(arr));
    return doc;
}

Json
TrendCheckResult::toJson() const
{
    Json doc = Json::object();
    doc.set("schema_version", Json(1));
    doc.set("generator", Json("aosd_trend check"));
    doc.set("metrics_checked",
            Json(static_cast<std::uint64_t>(metricsChecked)));
    doc.set("metrics_skipped",
            Json(static_cast<std::uint64_t>(metricsSkipped)));
    Json arr = Json::array();
    for (const TrendFlag &f : flags) {
        Json j = Json::object();
        j.set("metric", Json(f.metric));
        j.set("latest", Json(f.latest));
        j.set("median", Json(f.median));
        j.set("mad", Json(f.mad));
        j.set("band_half_width", Json(f.bandHalfWidth));
        j.set("pct_change", Json(f.pctChange));
        j.set("from", Json(f.fromId));
        j.set("to", Json(f.toId));
        arr.push(std::move(j));
    }
    doc.set("flags", std::move(arr));
    return doc;
}

TrendCheckResult
checkTrends(const PerfDb &db, double relTol,
            std::size_t baselineWindow, const std::string &filter,
            const std::string &skip)
{
    TrendCheckResult result;
    auto table = buildMetricTable(db);

    for (const std::string &metric : allMetrics(db)) {
        if (!metricSelected(metric, filter, skip))
            continue;
        std::vector<double> values;
        std::vector<std::size_t> rec_index;
        for (std::size_t i = 0; i < table.size(); ++i) {
            auto it = table[i].find(metric);
            if (it == table[i].end())
                continue;
            values.push_back(it->second);
            rec_index.push_back(i);
        }
        RollingStats s = rollingStats(values, baselineWindow);
        if (s.baselinePoints < 2) {
            ++result.metricsSkipped;
            continue;
        }
        ++result.metricsChecked;
        double band = std::max(relTol * std::fabs(s.median),
                               3.0 * s.mad);
        if (std::fabs(s.latest - s.median) <= band)
            continue;

        TrendFlag f;
        f.metric = metric;
        f.latest = s.latest;
        f.median = s.median;
        f.mad = s.mad;
        f.bandHalfWidth = band;
        f.pctChange = s.pctChange;
        f.toId = db.at(rec_index.back()).id();
        // The newest prior point still inside the band is the "from"
        // of the offending pair; when even the immediate predecessor
        // is out of band, use it anyway — the regression is older,
        // but the pair is still the freshest comparable evidence.
        std::size_t from = rec_index[rec_index.size() - 2];
        for (std::size_t k = rec_index.size() - 1; k-- > 0;) {
            if (std::fabs(values[k] - s.median) <= band) {
                from = rec_index[k];
                break;
            }
        }
        f.fromId = db.at(from).id();
        result.flags.push_back(std::move(f));
    }

    std::sort(result.flags.begin(), result.flags.end(),
              [](const TrendFlag &a, const TrendFlag &b) {
                  double pa = std::fabs(a.pctChange);
                  double pb = std::fabs(b.pctChange);
                  if (pa != pb)
                      return pa > pb;
                  double da = std::fabs(a.latest - a.median);
                  double db_ = std::fabs(b.latest - b.median);
                  if (da != db_)
                      return da > db_;
                  return a.metric < b.metric;
              });
    return result;
}

std::string
renderTrendHtml(const PerfDb &db, double relTol,
                std::size_t baselineWindow, const std::string &filter,
                const std::string &skip, std::size_t last)
{
    auto table = buildMetricTable(db);
    TrendCheckResult check =
        checkTrends(db, relTol, baselineWindow, filter, skip);
    std::set<std::string> flagged;
    for (const TrendFlag &f : check.flags)
        flagged.insert(f.metric);

    std::string html =
        "<!doctype html>\n<html><head><meta charset=\"utf-8\">\n"
        "<title>aosd perf trends</title>\n<style>\n"
        "body{font:14px/1.4 system-ui,sans-serif;margin:2em;"
        "color:#222}\n"
        "table{border-collapse:collapse;width:100%}\n"
        "th,td{padding:3px 10px;text-align:left;"
        "border-bottom:1px solid #eee;font-variant-numeric:"
        "tabular-nums}\n"
        "th{border-bottom:2px solid #888}\n"
        "tr.flag td{background:#fdecea}\n"
        "td.num{text-align:right}\n"
        ".ok{color:#1e8449}.bad{color:#c0392b;font-weight:600}\n"
        "h2{margin-top:2em}\ncode{background:#f4f4f4;"
        "padding:0 3px}\n</style></head><body>\n";
    html += "<h1>aosd perf trends</h1>\n";
    html += "<p>" + std::to_string(db.size()) + " record(s)";
    if (!db.empty())
        html += ", newest <code>" +
                htmlEscape(db.at(db.size() - 1).id()) + "</code>";
    html += "; band: max(" + fmtNum(100.0 * relTol) +
            "% of rolling median, 3&times;MAD) over up to " +
            std::to_string(baselineWindow) + " prior runs; " +
            std::to_string(check.flags.size()) +
            " metric(s) flagged.</p>\n";

    // Flagged metrics first, as their own table.
    if (!check.flags.empty()) {
        html += "<h2>Flagged</h2>\n<table>\n<tr><th>metric</th>"
                "<th>trend</th><th>median</th><th>latest</th>"
                "<th>&Delta;%</th><th>pair</th></tr>\n";
        for (const TrendFlag &f : check.flags) {
            MetricSeries s = metricSeries(db, f.metric, last);
            std::vector<double> values;
            for (const MetricPoint &p : s.points)
                values.push_back(p.value);
            html += "<tr class=\"flag\"><td><code>" +
                    htmlEscape(f.metric) + "</code></td><td>" +
                    sparklineSvg(values, true) +
                    "</td><td class=\"num\">" + fmtNum(f.median) +
                    "</td><td class=\"num bad\">" + fmtNum(f.latest) +
                    "</td><td class=\"num bad\">" +
                    fmtNum(f.pctChange) + "%</td><td><code>" +
                    htmlEscape(f.fromId) + "</code> &rarr; <code>" +
                    htmlEscape(f.toId) + "</code></td></tr>\n";
        }
        html += "</table>\n";
    }

    // Every selected metric, grouped by top-level document.
    std::string group;
    bool table_open = false;
    for (const std::string &metric : allMetrics(db)) {
        if (!metricSelected(metric, filter, skip))
            continue;
        std::vector<double> values;
        for (auto &row : table) {
            auto it = row.find(metric);
            if (it != row.end())
                values.push_back(it->second);
        }
        if (values.empty())
            continue;
        if (last > 0 && values.size() > last)
            values.erase(values.begin(),
                         values.end() -
                             static_cast<std::ptrdiff_t>(last));
        std::string g = metric.substr(0, metric.find('.'));
        if (g != group) {
            if (table_open)
                html += "</table>\n";
            group = g;
            html += "<h2>" + htmlEscape(group) +
                    "</h2>\n<table>\n<tr><th>metric</th>"
                    "<th>trend</th><th>n</th><th>median</th>"
                    "<th>latest</th><th>&Delta;%</th>"
                    "<th>status</th></tr>\n";
            table_open = true;
        }
        RollingStats s = rollingStats(values, baselineWindow);
        bool bad = flagged.count(metric) > 0;
        html += std::string("<tr") + (bad ? " class=\"flag\"" : "") +
                "><td><code>" + htmlEscape(metric) +
                "</code></td><td>" + sparklineSvg(values, bad) +
                "</td><td class=\"num\">" +
                std::to_string(values.size()) +
                "</td><td class=\"num\">" + fmtNum(s.median) +
                "</td><td class=\"num\">" + fmtNum(s.latest) +
                "</td><td class=\"num\">" + fmtNum(s.pctChange) +
                "%</td><td class=\"" + (bad ? "bad" : "ok") + "\">" +
                (bad ? "FLAGGED" : "ok") + "</td></tr>\n";
    }
    if (table_open)
        html += "</table>\n";
    html += "</body></html>\n";
    return html;
}

} // namespace aosd
