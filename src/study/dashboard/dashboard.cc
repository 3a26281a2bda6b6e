#include "study/dashboard/dashboard.hh"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <set>
#include <unordered_map>

#include "study/bisect.hh"
#include "study/dashboard/html.hh"
#include "study/trend_report.hh"

namespace aosd
{

namespace
{

struct PageRef
{
    const char *file;
    const char *title;
};

constexpr PageRef kPages[] = {
    {"index.html", "Overview"},
    {"tables.html", "Tables 1/5/7"},
    {"latency.html", "Latency vs load"},
    {"spans.html", "Tail attribution"},
    {"history.html", "History"},
};

const char *kCss =
    "body{font:14px/1.4 system-ui,sans-serif;margin:2em;color:#222;"
    "max-width:1100px}\n"
    "nav{margin:0 0 1.5em;padding-bottom:.6em;"
    "border-bottom:2px solid #888}\n"
    "nav a{margin-right:1.2em;color:#2c7fb8;text-decoration:none}\n"
    "nav a.here{color:#222;font-weight:600}\n"
    "nav .brand{margin-right:1.6em;font-weight:600}\n"
    "table{border-collapse:collapse}\n"
    "th,td{padding:3px 10px;text-align:left;"
    "border-bottom:1px solid #eee;"
    "font-variant-numeric:tabular-nums}\n"
    "th{border-bottom:2px solid #888}\n"
    "td.num,th.num{text-align:right}\n"
    "tr.flag td{background:#fdecea}\n"
    ".ok{color:#1e8449}.bad{color:#c0392b;font-weight:600}\n"
    ".muted{color:#777}\n"
    "h2{margin-top:2em}h3{margin-top:1.4em}\n"
    "code{background:#f4f4f4;padding:0 3px}\n"
    "details{margin:.5em 0}\n"
    "summary{cursor:pointer;font-weight:600}\n"
    ".chart .grid{stroke:#eee;stroke-width:1}\n"
    ".chart .tick{font:10px system-ui,sans-serif;fill:#777}\n"
    ".row{display:flex;flex-wrap:wrap;gap:1em;align-items:flex-end}\n"
    ".cell{margin:.2em 0}\n"
    ".fr{display:flex}\n"
    ".fn{box-sizing:border-box;min-width:2px;overflow:hidden;"
    "white-space:nowrap;border:1px solid #fff;border-radius:2px;"
    "padding:0 2px;font-size:11px}\n"
    ".fn>span{display:block;overflow:hidden;text-overflow:ellipsis}\n"
    ".d0{background:#dbe9f6}.d1{background:#c6dbef}"
    ".d2{background:#9ecae1}.d3{background:#74b2d4}\n"
    ".flame{margin:.3em 0 .6em;max-width:900px}\n"
    ".stack{display:flex;max-width:700px;margin:.2em 0}\n"
    ".stack div{box-sizing:border-box;overflow:hidden;"
    "white-space:nowrap;font-size:11px;padding:1px 3px;"
    "border:1px solid #fff}\n"
    ".s0{background:#dbe9f6}.s1{background:#9ecae1}"
    ".s2{background:#fdd9a0}\n";

std::string
pageOpen(std::size_t active)
{
    std::string html =
        "<!doctype html>\n<html><head><meta charset=\"utf-8\">\n"
        "<title>aosd · ";
    html += kPages[active].title;
    html += "</title>\n<style>\n";
    html += kCss;
    html += "</style></head><body>\n<nav><span class=\"brand\">aosd "
            "observability</span>";
    for (std::size_t i = 0; i < std::size(kPages); ++i) {
        html += "<a href=\"";
        html += kPages[i].file;
        html += i == active ? "\" class=\"here\">" : "\">";
        html += kPages[i].title;
        html += "</a>";
    }
    html += "</nav>\n<h1>";
    html += kPages[active].title;
    html += "</h1>\n";
    return html;
}

std::string
pageClose()
{
    return "</body></html>\n";
}

// ---- defensive JSON access -------------------------------------

const Json *
jfind(const Json *j, const std::string &key)
{
    return j && j->isObject() ? j->find(key) : nullptr;
}

double
jnum(const Json *j, double fallback = 0)
{
    return j && j->isNumber() ? j->asNumber() : fallback;
}

std::string
jstr(const Json *j, const std::string &fallback = "")
{
    return j && j->isString() ? j->asString() : fallback;
}

// ---- gate health ------------------------------------------------

/** Worst reconciliation.explained_pct across a two-level
 *  {outer:{inner:{reconciliation:{explained_pct}}}} document. */
double
worstExplained(const Json *groups)
{
    double worst = std::numeric_limits<double>::infinity();
    if (!groups || !groups->isObject())
        return worst;
    for (const auto &[outer, cells] : groups->items()) {
        (void)outer;
        if (!cells.isObject())
            continue;
        for (const auto &[inner, cell] : cells.items()) {
            (void)inner;
            const Json *pct =
                jfind(jfind(&cell, "reconciliation"),
                      "explained_pct");
            if (pct)
                worst = std::min(worst, pct->asNumber());
        }
    }
    return worst;
}

double
worstSpanExplained(const Json *spans)
{
    double worst = std::numeric_limits<double>::infinity();
    const Json *machines = jfind(spans, "machines");
    if (!machines)
        return worst;
    for (const auto &[m, prims] : machines->items()) {
        (void)m;
        if (!prims.isObject())
            continue;
        for (const auto &[p, cell] : prims.items()) {
            (void)p;
            const Json *pct =
                jfind(jfind(&cell, "tail_attribution"),
                      "explained_pct");
            if (pct)
                worst = std::min(worst, pct->asNumber());
        }
    }
    return worst;
}

double
worstTrafficExplained(const Json *traffic)
{
    double worst = std::numeric_limits<double>::infinity();
    const Json *machines = jfind(traffic, "machines");
    if (!machines || !machines->isArray())
        return worst;
    for (std::size_t i = 0; i < machines->size(); ++i) {
        const Json *levels =
            jfind(&machines->at(i), "load_levels");
        if (!levels || !levels->isArray())
            continue;
        for (std::size_t li = 0; li < levels->size(); ++li) {
            const Json *pct =
                jfind(jfind(&levels->at(li), "kernel_window"),
                      "explained_pct");
            if (pct)
                worst = std::min(worst, pct->asNumber());
        }
    }
    return worst;
}

/** Count the (outer × inner) cells of a two-level object doc. */
std::size_t
cellCount(const Json *groups)
{
    std::size_t n = 0;
    if (!groups || !groups->isObject())
        return 0;
    for (const auto &[outer, cells] : groups->items()) {
        (void)outer;
        if (cells.isObject())
            n += cells.items().size();
    }
    return n;
}

std::string
trafficLabel(const Json *traffic)
{
    const Json *cfg = jfind(traffic, "config");
    return jstr(jfind(cfg, "mode"), "?") + " · " +
           jstr(jfind(cfg, "arrival"), "?");
}

// ---- precomputed history analysis ------------------------------

struct HistoryData
{
    bool present = false;
    TrendCheckResult check;
};

// ---- flame rendering -------------------------------------------

/** Span-tree node {name,cycles,spans:[...]} as flame-style nested
 *  bars; each child's width is its share of the parent's cycles. */
void
spanFlame(const Json &node, double parentCycles, int depth,
          std::string &out)
{
    double cyc = jnum(jfind(&node, "cycles"));
    double pct =
        parentCycles > 0 ? 100.0 * cyc / parentCycles : 100.0;
    std::string name = jstr(jfind(&node, "name"), "?");
    out += "<div class=\"fn d" + std::to_string(depth % 4) +
           "\" style=\"width:" + fmtNum(pct) + "%\" title=\"" +
           htmlEscape(name) + ": " + fmtNum(cyc) +
           " cycles\"><span>" + htmlEscape(name) + " · " +
           fmtNum(cyc) + "</span>";
    const Json *kids = jfind(&node, "spans");
    if (kids && kids->isArray() && kids->size() > 0) {
        out += "<div class=\"fr\">";
        for (std::size_t i = 0; i < kids->size(); ++i)
            spanFlame(kids->at(i), cyc, depth + 1, out);
        out += "</div>";
    }
    out += "</div>";
}

/** Profiler node {total_cycles,children:{name:node}} as the same
 *  flame layout (children keyed by name instead of listed). */
void
profileFlame(const std::string &name, const Json &node,
             double parentCycles, int depth, std::string &out)
{
    double cyc = jnum(jfind(&node, "total_cycles"));
    double pct =
        parentCycles > 0 ? 100.0 * cyc / parentCycles : 100.0;
    out += "<div class=\"fn d" + std::to_string(depth % 4) +
           "\" style=\"width:" + fmtNum(pct) + "%\" title=\"" +
           htmlEscape(name) + ": " + fmtNum(cyc) +
           " cycles\"><span>" + htmlEscape(name) + " · " +
           fmtNum(cyc) + "</span>";
    const Json *kids = jfind(&node, "children");
    if (kids && kids->isObject() && !kids->items().empty()) {
        out += "<div class=\"fr\">";
        for (const auto &[child, sub] : kids->items())
            profileFlame(child, sub, cyc, depth + 1, out);
        out += "</div>";
    }
    out += "</div>";
}

// ---- reconciliation term tables --------------------------------

/**
 * The terms block of a reconciliation (or tail attribution): one row
 * per event class with any movement, priced cycles descending (name
 * ascending on ties, so output is deterministic).
 */
std::string
termsTable(const Json *terms, const char *countHeader,
           double denomCycles)
{
    if (!terms || !terms->isObject())
        return "";
    struct Row
    {
        std::string name;
        double count, penalty, cycles;
    };
    std::vector<Row> rows;
    for (const auto &[name, term] : terms->items()) {
        Row r;
        r.name = name;
        const Json *count = jfind(&term, "count");
        if (!count)
            count = jfind(&term, "delta_count");
        r.count = jnum(count);
        r.penalty = jnum(jfind(&term, "penalty_cycles"));
        r.cycles = jnum(jfind(&term, "cycles"));
        if (r.count != 0 || r.cycles != 0)
            rows.push_back(std::move(r));
    }
    std::sort(rows.begin(), rows.end(),
              [](const Row &a, const Row &b) {
                  double ca = std::fabs(a.cycles);
                  double cb = std::fabs(b.cycles);
                  if (ca != cb)
                      return ca > cb;
                  return a.name < b.name;
              });
    std::string html = "<table><tr><th>event class</th>"
                       "<th class=\"num\">";
    html += countHeader;
    html += "</th><th class=\"num\">penalty</th>"
            "<th class=\"num\">cycles</th>"
            "<th class=\"num\">share</th></tr>\n";
    for (const Row &r : rows) {
        double share =
            denomCycles != 0 ? 100.0 * r.cycles / denomCycles : 0;
        html += "<tr><td><code>" + htmlEscape(r.name) +
                "</code></td><td class=\"num\">" + fmtNum(r.count) +
                "</td><td class=\"num\">" + fmtNum(r.penalty) +
                "</td><td class=\"num\">" + fmtNum(r.cycles) +
                "</td><td class=\"num\">" + fmtNum(share) +
                "%</td></tr>\n";
    }
    html += "</table>\n";
    return html;
}

// ---- overview page ---------------------------------------------

std::string
gateRow(const std::string &page, const std::string &doc,
        bool present, const std::string &health, bool pass,
        const std::string &gate)
{
    std::string html = "<tr><td><a href=\"" + page + "\">" +
                       htmlEscape(doc) + "</a></td><td>";
    html += present ? "yes" : "<span class=\"muted\">—</span>";
    html += "</td><td>" + health + "</td><td>";
    if (!present)
        html += "<span class=\"muted\">n/a</span>";
    else
        html += pass ? "<span class=\"ok\">PASS</span>"
                     : "<span class=\"bad\">FAIL</span>";
    html += "</td><td class=\"muted\">" + htmlEscape(gate) +
            "</td></tr>\n";
    return html;
}

std::string
overviewHtml(const DashboardInputs &in, const DashboardOptions &opts,
             const HistoryData &hist)
{
    std::string html = pageOpen(0);

    html += "<p>Every measurement document this tree produces, fused "
            "into one static site. Each gate below is the same "
            "reconciliation discipline CI enforces: cycles must be "
            "explained, not estimated.</p>\n";

    // -- inputs and gate status --
    html += "<h2 id=\"gates\">Inputs and gates</h2>\n"
            "<table>\n<tr><th>document</th><th>present</th>"
            "<th>health</th><th>status</th><th>gate</th></tr>\n";

    if (in.report) {
        const Json *summary = jfind(in.report, "summary");
        double mean = jnum(jfind(summary, "mean_abs_rel_error"), -1);
        std::string health =
            fmtNum(jnum(jfind(summary, "figures"))) + " figures, " +
            fmtNum(jnum(jfind(summary, "with_paper"))) +
            " vs paper, mean |rel err| " + fmtNum(100.0 * mean) +
            "%";
        html += gateRow("tables.html", "report", true, health,
                        mean >= 0 && mean <= 0.15,
                        "mean |rel err| <= 15%");
    } else {
        html += gateRow("tables.html", "report", false, "", false,
                        "mean |rel err| <= 15%");
    }

    double ctr_worst = worstExplained(jfind(in.counters, "machines"));
    html += gateRow(
        "tables.html", "counters", in.counters != nullptr,
        in.counters
            ? fmtNum(static_cast<double>(
                  cellCount(jfind(in.counters, "machines")))) +
                  " cells, worst explained " + fmtNum(ctr_worst) + "%"
            : "",
        ctr_worst >= 95.0 && ctr_worst <= 105.0,
        "95% <= explained <= 105%");

    double kw_worst = 100.0;
    if (in.kernelWindows) {
        kw_worst = std::numeric_limits<double>::infinity();
        const Json *cells = jfind(in.kernelWindows, "cells");
        if (cells && cells->isObject())
            for (const auto &[name, cell] : cells->items()) {
                (void)name;
                kw_worst = std::min(
                    kw_worst,
                    jnum(jfind(jfind(&cell, "reconciliation"),
                               "explained_pct"),
                         std::numeric_limits<double>::infinity()));
            }
        const Json *cells2 = jfind(in.kernelWindows, "cells");
        html += gateRow(
            "tables.html", "kernel_windows", true,
            fmtNum(static_cast<double>(
                cells2 && cells2->isObject()
                    ? cells2->items().size()
                    : 0)) +
                " cells, worst explained " + fmtNum(kw_worst) + "%",
            kw_worst >= 95.0 && kw_worst <= 105.0,
            "95% <= explained <= 105%");
    } else {
        html += gateRow("tables.html", "kernel_windows", false, "",
                        false, "95% <= explained <= 105%");
    }

    if (in.profile) {
        bool complete = true;
        std::size_t cells = 0;
        const Json *machines = jfind(in.profile, "machines");
        if (machines && machines->isObject())
            for (const auto &[m, prims] : machines->items()) {
                (void)m;
                if (!prims.isObject())
                    continue;
                for (const auto &[p, cell] : prims.items()) {
                    (void)p;
                    ++cells;
                    const Json *c =
                        jfind(&cell, "attribution_complete");
                    if (!c || !c->isBool() || !c->asBool())
                        complete = false;
                }
            }
        html += gateRow("tables.html", "profile", true,
                        fmtNum(static_cast<double>(cells)) +
                            " cells, attribution " +
                            (complete ? "complete" : "incomplete"),
                        complete, "sum of leaves == total");
    } else {
        html += gateRow("tables.html", "profile", false, "", false,
                        "sum of leaves == total");
    }

    double span_worst = worstSpanExplained(in.spans);
    html += gateRow(
        "spans.html", "spans", in.spans != nullptr,
        in.spans ? fmtNum(static_cast<double>(
                       cellCount(jfind(in.spans, "machines")))) +
                       " cells, worst tail explained " +
                       fmtNum(span_worst) + "%"
                 : "",
        span_worst >= 80.0, "tail gap >= 80% explained");

    if (in.traffic.empty()) {
        html += gateRow("latency.html", "traffic", false, "", false,
                        "window >= 99.999% explained");
    } else {
        for (const Json *t : in.traffic) {
            double worst = worstTrafficExplained(t);
            const Json *cfg = jfind(t, "config");
            html += gateRow(
                "latency.html", "traffic (" + trafficLabel(t) + ")",
                true,
                fmtNum(jnum(jfind(t, "total_requests"))) +
                    " requests, " +
                    fmtNum(jnum(jfind(cfg, "requests_per_level"))) +
                    " per cell, worst window explained " +
                    fmtNum(worst) + "%",
                worst >= 99.999, "window >= 99.999% explained");
        }
    }

    if (hist.present) {
        html += gateRow(
            "history.html", "perfdb history", true,
            fmtNum(static_cast<double>(in.db->size())) +
                " records, " +
                fmtNum(static_cast<double>(hist.check.flags.size())) +
                " rolling-band flag(s)",
            hist.check.flags.empty(),
            "no metric outside max(" +
                fmtNum(100.0 * opts.relTol) + "% of median, 3xMAD)");
    } else {
        html += gateRow("history.html", "perfdb history", false, "",
                        false, "no metric outside the rolling band");
    }
    html += "</table>\n";

    // -- headlines vs paper --
    const Json *headlines =
        jfind(jfind(jfind(in.report, "tables"), "headlines"),
              "figures");
    if (headlines && headlines->isArray()) {
        html += "<h2 id=\"headlines\">Headlines vs paper</h2>\n"
                "<p>The paper's quoted end-to-end numbers, "
                "regenerated by the simulator.</p>\n"
                "<table>\n<tr><th>figure</th><th class=\"num\">sim"
                "</th><th class=\"num\">paper</th>"
                "<th class=\"num\">rel err</th></tr>\n";
        for (std::size_t i = 0; i < headlines->size(); ++i) {
            const Json &f = headlines->at(i);
            double rel = jnum(jfind(&f, "rel_error"));
            bool close = std::fabs(rel) <= 0.10;
            html += "<tr><td><code>" +
                    htmlEscape(jstr(jfind(&f, "id"))) + "</code> (" +
                    htmlEscape(jstr(jfind(&f, "unit"))) +
                    ")</td><td class=\"num\">" +
                    fmtNum(jnum(jfind(&f, "sim"))) +
                    "</td><td class=\"num\">" +
                    fmtNum(jnum(jfind(&f, "paper"))) +
                    "</td><td class=\"num " +
                    (close ? "ok" : "bad") + "\">" +
                    fmtNum(100.0 * rel) + "%</td></tr>\n";
        }
        html += "</table>\n";
    }

    html += "<p class=\"muted\">Site manifest: "
            "<a href=\"manifest.json\">manifest.json</a>. Regenerate "
            "with <code>aosd_dashboard</code>; the bytes are "
            "identical at any <code>--jobs</code> value.</p>\n";
    html += pageClose();
    return html;
}

// ---- tables page -----------------------------------------------

/** Figures of one report table keyed "<metric>.<rest>"; metric and
 *  rest keep first-seen order. */
struct FigureGrid
{
    std::vector<std::string> metrics; ///< row keys, first-seen
    std::vector<std::string> columns; ///< column keys, first-seen
    /** metric -> column -> figure json pointer. */
    std::unordered_map<std::string,
                       std::unordered_map<std::string, const Json *>>
        cells;
};

FigureGrid
gridFromFigures(const Json *figures, bool columnIsTail)
{
    FigureGrid grid;
    if (!figures || !figures->isArray())
        return grid;
    for (std::size_t i = 0; i < figures->size(); ++i) {
        const Json &f = figures->at(i);
        std::string id = jstr(jfind(&f, "id"));
        std::size_t dot = id.find('.');
        if (dot == std::string::npos)
            continue;
        std::string metric = id.substr(0, dot);
        std::string column = id.substr(dot + 1);
        if (!columnIsTail) {
            // "<metric>.<workload>.<structure>": row = workload ×
            // structure, column = metric.
            std::swap(metric, column);
        }
        if (!grid.cells.count(metric))
            grid.metrics.push_back(metric);
        if (!grid.cells[metric].count(column) &&
            std::find(grid.columns.begin(), grid.columns.end(),
                      column) == grid.columns.end())
            grid.columns.push_back(column);
        grid.cells[metric][column] = &f;
    }
    return grid;
}

std::string
simVsPaperCell(const Json *fig, const std::string &href)
{
    if (!fig)
        return "<td class=\"num muted\">—</td>";
    std::string sim = fmtNum(jnum(jfind(fig, "sim")));
    const Json *paper = jfind(fig, "paper");
    std::string body = href.empty()
                           ? sim
                           : "<a href=\"" + href + "\">" + sim +
                                 "</a>";
    if (paper && paper->isNumber() &&
        !std::isnan(paper->asNumber()))
        body += " <span class=\"muted\">(" +
                fmtNum(paper->asNumber()) + ")</span>";
    return "<td class=\"num\">" + body + "</td>";
}

std::string
tablesHtml(const DashboardInputs &in)
{
    std::string html = pageOpen(1);
    const Json *tables = jfind(in.report, "tables");
    if (!tables) {
        html += "<p class=\"muted\">report.json not provided.</p>\n";
        html += pageClose();
        return html;
    }

    // -- Table 1 --
    FigureGrid t1 = gridFromFigures(
        jfind(jfind(tables, "table1"), "figures"), true);
    if (!t1.metrics.empty()) {
        html += "<h2 id=\"table1\">Table 1 — OS primitive "
                "latencies</h2>\n<p>sim <span class=\"muted\">"
                "(paper)</span>, microseconds. Each cell links to "
                "its counter reconciliation and profiler anatomy "
                "below.</p>\n<table>\n<tr><th>primitive</th>";
        for (const std::string &m : t1.columns)
            html += "<th class=\"num\">" + htmlEscape(m) + "</th>";
        html += "</tr>\n";
        for (const std::string &metric : t1.metrics) {
            html += "<tr><td><code>" + htmlEscape(metric) +
                    "</code></td>";
            // "null_syscall_us" -> counters cell "null_syscall".
            std::string prim = metric.size() > 3 &&
                                       metric.rfind("_us") ==
                                           metric.size() - 3
                                   ? metric.substr(0, metric.size() -
                                                          3)
                                   : metric;
            for (const std::string &m : t1.columns) {
                const Json *cell =
                    jfind(jfind(jfind(in.counters, "machines"), m),
                          prim);
                std::string href =
                    cell ? "#ctr-" + m + "-" + prim : "";
                html += simVsPaperCell(t1.cells[metric][m], href);
            }
            html += "</tr>\n";
        }
        html += "</table>\n";
    }

    // -- Table 5 --
    const Json *t5_anatomy =
        jfind(in.profile, "table5_anatomy");
    FigureGrid t5 = gridFromFigures(
        jfind(jfind(tables, "table5"), "figures"), true);
    if (!t5.metrics.empty() || t5_anatomy) {
        html += "<h2 id=\"table5\">Table 5 — anatomy of a system "
                "call</h2>\n";
        if (t5_anatomy && t5_anatomy->isObject()) {
            html += "<p>Profiler-derived decomposition, "
                    "microseconds; bar widths share one scale.</p>\n";
            double max_total = 0;
            for (const auto &[m, parts] : t5_anatomy->items()) {
                (void)m;
                max_total = std::max(
                    max_total, jnum(jfind(&parts, "total_us")));
            }
            static const char *kParts[] = {"kernel_entry_exit_us",
                                           "call_prep_us",
                                           "c_call_return_us"};
            for (const auto &[m, parts] : t5_anatomy->items()) {
                html += "<div class=\"cell\"><code>" +
                        htmlEscape(m) + "</code> — " +
                        fmtNum(jnum(jfind(&parts, "total_us"))) +
                        " us<div class=\"stack\">";
                for (std::size_t pi = 0; pi < std::size(kParts);
                     ++pi) {
                    double us = jnum(jfind(&parts, kParts[pi]));
                    double pct = max_total > 0
                                     ? 100.0 * us / max_total
                                     : 0;
                    html += "<div class=\"s" + std::to_string(pi) +
                            "\" style=\"width:" + fmtNum(pct) +
                            "%\" title=\"" + kParts[pi] + ": " +
                            fmtNum(us) + " us\">" +
                            htmlEscape(std::string(kParts[pi])
                                           .substr(0, 6)) +
                            " " + fmtNum(us) + "</div>";
                }
                html += "</div></div>\n";
            }
        }
        if (!t5.metrics.empty()) {
            html += "<table>\n<tr><th>component</th>";
            for (const std::string &m : t5.columns)
                html +=
                    "<th class=\"num\">" + htmlEscape(m) + "</th>";
            html += "</tr>\n";
            for (const std::string &metric : t5.metrics) {
                html += "<tr><td><code>" + htmlEscape(metric) +
                        "</code></td>";
                for (const std::string &m : t5.columns)
                    html +=
                        simVsPaperCell(t5.cells[metric][m], "");
                html += "</tr>\n";
            }
            html += "</table>\n";
        }
    }

    // -- Table 7 --
    FigureGrid t7 = gridFromFigures(
        jfind(jfind(tables, "table7"), "figures"), false);
    if (!t7.metrics.empty()) {
        html += "<h2 id=\"table7\">Table 7 — Mach structure "
                "costs</h2>\n<p>sim <span class=\"muted\">(paper)"
                "</span>. Rows are workload × OS structure; each "
                "links to its kernel-window reconciliation.</p>\n"
                "<table>\n<tr><th>workload</th>";
        for (const std::string &c : t7.columns)
            html += "<th class=\"num\">" + htmlEscape(c) + "</th>";
        html += "</tr>\n";
        for (const std::string &row : t7.metrics) {
            // "spellcheck-1.mach25" -> kernel-window cell
            // "spellcheck_1.mach25".
            std::string kw_cell = row;
            std::replace(kw_cell.begin(), kw_cell.end(), '-', '_');
            std::size_t last_dot = kw_cell.rfind('_');
            // Only the workload part uses underscores; the
            // ".machNN" suffix keeps its dot.
            last_dot = kw_cell.rfind("_mach");
            if (last_dot != std::string::npos)
                kw_cell[last_dot] = '.';
            bool has_kw =
                jfind(jfind(in.kernelWindows, "cells"), kw_cell) !=
                nullptr;
            html += "<tr><td>";
            if (has_kw)
                html += "<a href=\"#kw-" + kw_cell + "\"><code>" +
                        htmlEscape(row) + "</code></a>";
            else
                html += "<code>" + htmlEscape(row) + "</code>";
            html += "</td>";
            for (const std::string &c : t7.columns)
                html += simVsPaperCell(t7.cells[row][c], "");
            html += "</tr>\n";
        }
        html += "</table>\n";
    }

    // -- counters drill-down --
    const Json *ctr_machines = jfind(in.counters, "machines");
    if (ctr_machines && ctr_machines->isObject()) {
        html += "<h2 id=\"reconciliation\">Per-cell counter "
                "reconciliation and anatomy</h2>\n"
                "<p>Every Table 1 cell's cycles reconstructed from "
                "priced counter deltas, next to the profiler's "
                "literal attribution tree.</p>\n";
        for (const auto &[m, prims] : ctr_machines->items()) {
            if (!prims.isObject())
                continue;
            for (const auto &[p, cell] : prims.items()) {
                const Json *rec = jfind(&cell, "reconciliation");
                html += "<details open id=\"ctr-" + m + "-" + p +
                        "\"><summary>" + htmlEscape(m) + " · " +
                        htmlEscape(p) + " — " +
                        fmtNum(jnum(jfind(&cell,
                                          "cycles_per_call"))) +
                        " cycles/call, " +
                        fmtNum(jnum(jfind(rec, "explained_pct"))) +
                        "% explained</summary>\n";
                html += termsTable(jfind(rec, "terms"), "count",
                                   jnum(jfind(rec,
                                              "actual_cycles")));
                const Json *prof_cell =
                    jfind(jfind(jfind(in.profile, "machines"), m),
                          p);
                const Json *tree = jfind(prof_cell, "tree");
                if (tree) {
                    html += "<div class=\"flame\">";
                    profileFlame(
                        p + " (" +
                            fmtNum(jnum(jfind(tree,
                                              "total_cycles"))) +
                            " cycles)",
                        *tree, jnum(jfind(tree, "total_cycles")), 0,
                        html);
                    html += "</div>\n";
                }
                html += "</details>\n";
            }
        }
    }

    // -- kernel-window drill-down --
    const Json *kw_cells = jfind(in.kernelWindows, "cells");
    if (kw_cells && kw_cells->isObject()) {
        html += "<h2 id=\"kernel-windows\">Kernel-window "
                "reconciliation (" +
                htmlEscape(jstr(jfind(in.kernelWindows, "machine"),
                                "?")) +
                ")</h2>\n<p>Whole Table 7 cells explained from "
                "batched event charges.</p>\n";
        for (const auto &[name, cell] : kw_cells->items()) {
            const Json *rec = jfind(&cell, "reconciliation");
            html += "<details id=\"kw-" + name + "\"><summary>" +
                    htmlEscape(name) + " — " +
                    fmtNum(jnum(jfind(rec, "actual_cycles"))) +
                    " cycles, " +
                    fmtNum(jnum(jfind(rec, "explained_pct"))) +
                    "% explained</summary>\n";
            html += termsTable(jfind(rec, "terms"), "count",
                               jnum(jfind(rec, "actual_cycles")));
            html += "</details>\n";
        }
    }

    html += pageClose();
    return html;
}

// ---- latency page ----------------------------------------------

std::string
latencyHtml(const DashboardInputs &in)
{
    std::string html = pageOpen(2);
    if (in.traffic.empty()) {
        html +=
            "<p class=\"muted\">No traffic.json provided. Generate "
            "sweeps with <code>aosd_traffic --json</code> (one per "
            "arrival pattern) and pass each via "
            "<code>--traffic</code>.</p>\n";
        html += pageClose();
        return html;
    }

    html += "<p>Latency percentiles vs offered load per machine and "
            "arrival pattern — where does p99 collapse? The y axis "
            "is square-root scaled so a quiet p50 and a collapsed "
            "p999 share one plot; the dashed overlay is the maximum "
            "queue depth on its own right-hand scale.</p>\n";

    for (const Json *t : in.traffic) {
        const Json *cfg = jfind(t, "config");
        std::string label = trafficLabel(t);
        bool closed = jstr(jfind(cfg, "mode")) == "closed";
        html += "<h2 id=\"sweep-" +
                jstr(jfind(cfg, "mode"), "?") + "-" +
                jstr(jfind(cfg, "arrival"), "?") + "\">" +
                htmlEscape(label) + " — " +
                fmtNum(jnum(jfind(cfg, "requests_per_level"))) +
                " requests per cell</h2>\n";

        const Json *machines = jfind(t, "machines");
        if (!machines || !machines->isArray())
            continue;
        for (std::size_t mi = 0; mi < machines->size(); ++mi) {
            const Json &m = machines->at(mi);
            std::string slug = jstr(jfind(&m, "machine"), "?");
            const Json *levels = jfind(&m, "load_levels");
            if (!levels || !levels->isArray() ||
                levels->size() == 0)
                continue;

            html += "<h3 id=\"lat-" +
                    jstr(jfind(cfg, "mode"), "?") + "-" +
                    jstr(jfind(cfg, "arrival"), "?") + "-" + slug +
                    "\">" + htmlEscape(slug) + "</h3>\n";

            std::vector<std::string> labels;
            ChartSeries p50{"p50", "#1b9e77", {}};
            ChartSeries p90{"p90", "#2c7fb8", {}};
            ChartSeries p99{"p99", "#e6821e", {}};
            ChartSeries p999{"p99.9", "#c0392b", {}};
            ChartSeries queue{"max queue", "#666", {}};
            for (std::size_t li = 0; li < levels->size(); ++li) {
                const Json &cell = levels->at(li);
                labels.push_back(
                    fmtNum(jnum(jfind(&cell, "load"))) +
                    (closed ? " cl" : ""));
                const Json *all = jfind(
                    jfind(&cell, "latency_cycles"), "all");
                p50.values.push_back(jnum(jfind(all, "p50")));
                p90.values.push_back(jnum(jfind(all, "p90")));
                p99.values.push_back(jnum(jfind(all, "p99")));
                p999.values.push_back(jnum(jfind(all, "p999")));
                queue.values.push_back(
                    jnum(jfind(&cell, "max_queue_depth")));
            }
            html += lineChartSvg(labels, {p50, p90, p99, p999},
                                 queue, 560, 280, "cycles",
                                 "queue");

            // Numeric table.
            html += "<table>\n<tr><th class=\"num\">" +
                    std::string(closed ? "clients" : "load") +
                    "</th><th class=\"num\">krps</th>"
                    "<th class=\"num\">p50</th>"
                    "<th class=\"num\">p90</th>"
                    "<th class=\"num\">p99</th>"
                    "<th class=\"num\">p99.9</th>"
                    "<th class=\"num\">max q</th>"
                    "<th class=\"num\">explained</th></tr>\n";
            for (std::size_t li = 0; li < levels->size(); ++li) {
                const Json &cell = levels->at(li);
                const Json *all = jfind(
                    jfind(&cell, "latency_cycles"), "all");
                html +=
                    "<tr><td class=\"num\">" +
                    fmtNum(jnum(jfind(&cell, "load"))) +
                    "</td><td class=\"num\">" +
                    fmtNum(jnum(jfind(&cell, "throughput_rps")) /
                           1e3) +
                    "</td><td class=\"num\">" +
                    fmtNum(jnum(jfind(all, "p50"))) +
                    "</td><td class=\"num\">" +
                    fmtNum(jnum(jfind(all, "p90"))) +
                    "</td><td class=\"num\">" +
                    fmtNum(jnum(jfind(all, "p99"))) +
                    "</td><td class=\"num\">" +
                    fmtNum(jnum(jfind(all, "p999"))) +
                    "</td><td class=\"num\">" +
                    fmtNum(jnum(jfind(&cell, "max_queue_depth"))) +
                    "</td><td class=\"num\">" +
                    fmtNum(jnum(jfind(jfind(&cell, "kernel_window"),
                                      "explained_pct"))) +
                    "%</td></tr>\n";
            }
            html += "</table>\n";

            // Per-request-class small multiples (p50/p99 per
            // class); class list from the first level's per_class
            // block, which every level shares.
            const Json *per_class =
                jfind(jfind(&levels->at(0), "latency_cycles"),
                      "per_class");
            if (per_class && per_class->isObject() &&
                !per_class->items().empty()) {
                html += "<div class=\"row\">\n";
                for (const auto &[cls, first_cell] :
                     per_class->items()) {
                    (void)first_cell;
                    ChartSeries c50{"p50", "#1b9e77", {}};
                    ChartSeries c99{"p99", "#c0392b", {}};
                    for (std::size_t li = 0; li < levels->size();
                         ++li) {
                        const Json *cc = jfind(
                            jfind(jfind(&levels->at(li),
                                        "latency_cycles"),
                                  "per_class"),
                            cls);
                        c50.values.push_back(
                            jnum(jfind(cc, "p50")));
                        c99.values.push_back(
                            jnum(jfind(cc, "p99")));
                    }
                    html += "<div><div class=\"muted\">" +
                            htmlEscape(cls) + "</div>" +
                            lineChartSvg(labels, {c50, c99},
                                         ChartSeries{}, 200, 130,
                                         "", "") +
                            "</div>\n";
                }
                html += "</div>\n";
            }
        }
    }

    html += pageClose();
    return html;
}

// ---- spans page ------------------------------------------------

std::string
spansHtml(const DashboardInputs &in)
{
    std::string html = pageOpen(3);
    const Json *machines = jfind(in.spans, "machines");
    if (!machines || !machines->isObject()) {
        html += "<p class=\"muted\">spans.json not provided. "
                "Generate with <code>aosd_spans --json</code>.</p>\n";
        html += pageClose();
        return html;
    }

    html += "<p>Why is p99 slow? Per (machine × primitive) cell: "
            "exact latency percentiles, the slowest requests' "
            "literal span trees as flame bars, and the median-vs-p99 "
            "gap priced by event class.</p>\n";

    for (const auto &[m, prims] : machines->items()) {
        if (!prims.isObject())
            continue;
        html += "<h2 id=\"spans-" + m + "\">" + htmlEscape(m) +
                "</h2>\n";
        for (const auto &[p, cell] : prims.items()) {
            const Json *cyc = jfind(&cell, "cycles");
            const Json *tail = jfind(&cell, "tail_attribution");
            html += "<details id=\"spans-" + m + "-" + p +
                    "\"><summary>" + htmlEscape(p) + " — p50 " +
                    fmtNum(jnum(jfind(cyc, "p50"))) + ", p99 " +
                    fmtNum(jnum(jfind(cyc, "p99"))) +
                    " cycles</summary>\n";
            html += "<table>\n<tr><th class=\"num\">requests</th>"
                    "<th class=\"num\">mean</th>"
                    "<th class=\"num\">min</th>"
                    "<th class=\"num\">p50</th>"
                    "<th class=\"num\">p90</th>"
                    "<th class=\"num\">p99</th>"
                    "<th class=\"num\">p99.9</th>"
                    "<th class=\"num\">max</th></tr>\n"
                    "<tr><td class=\"num\">" +
                    fmtNum(jnum(jfind(&cell, "requests"))) +
                    "</td><td class=\"num\">" +
                    fmtNum(jnum(jfind(cyc, "mean"))) +
                    "</td><td class=\"num\">" +
                    fmtNum(jnum(jfind(cyc, "min"))) +
                    "</td><td class=\"num\">" +
                    fmtNum(jnum(jfind(cyc, "p50"))) +
                    "</td><td class=\"num\">" +
                    fmtNum(jnum(jfind(cyc, "p90"))) +
                    "</td><td class=\"num\">" +
                    fmtNum(jnum(jfind(cyc, "p99"))) +
                    "</td><td class=\"num\">" +
                    fmtNum(jnum(jfind(cyc, "p999"))) +
                    "</td><td class=\"num\">" +
                    fmtNum(jnum(jfind(cyc, "max"))) +
                    "</td></tr>\n</table>\n";

            if (tail) {
                html += "<p>Tail vs median: request #" +
                        fmtNum(jnum(jfind(tail, "median_request"))) +
                        " (" +
                        fmtNum(jnum(jfind(tail, "median_cycles"))) +
                        " cycles) vs #" +
                        fmtNum(jnum(jfind(tail, "p99_request"))) +
                        " (" +
                        fmtNum(jnum(jfind(tail, "p99_cycles"))) +
                        " cycles): gap " +
                        fmtNum(jnum(jfind(tail, "gap_cycles"))) +
                        " cycles, <span class=\"ok\">" +
                        fmtNum(jnum(jfind(tail, "explained_pct"))) +
                        "% explained</span> by priced event "
                        "deltas:</p>\n";
                html += termsTable(jfind(tail, "terms"), "Δ count",
                                   jnum(jfind(tail, "gap_cycles")));
            }

            const Json *exemplars = jfind(&cell, "exemplars");
            if (exemplars && exemplars->isArray()) {
                for (std::size_t ei = 0; ei < exemplars->size();
                     ++ei) {
                    const Json &ex = exemplars->at(ei);
                    html += "<div class=\"cell\">slowest #" +
                            fmtNum(ei + 1) + ": request " +
                            fmtNum(jnum(jfind(&ex, "id"))) + " — " +
                            fmtNum(jnum(jfind(&ex, "cycles"))) +
                            " cycles<div class=\"flame\">";
                    const Json *tree = jfind(&ex, "spans");
                    if (tree)
                        spanFlame(*tree,
                                  jnum(jfind(tree, "cycles")), 0,
                                  html);
                    html += "</div></div>\n";
                }
            }
            html += "</details>\n";
        }
    }

    // -- IPC models --
    const Json *ipc = jfind(in.spans, "ipc");
    if (ipc && ipc->isObject()) {
        html += "<h2 id=\"ipc\">IPC model breakdowns</h2>\n"
                "<p>One traced null call per analytic model.</p>\n";
        for (const auto &[m, models] : ipc->items()) {
            if (!models.isObject())
                continue;
            html += "<h3 id=\"ipc-" + m + "\">" + htmlEscape(m) +
                    "</h3>\n";
            for (const auto &[model, entry] : models.items()) {
                const Json *tree = jfind(&entry, "spans");
                html += "<div class=\"cell\"><code>" +
                        htmlEscape(model) + "</code> — " +
                        fmtNum(jnum(jfind(&entry, "cycles"))) +
                        " cycles<div class=\"flame\">";
                if (tree)
                    spanFlame(*tree, jnum(jfind(tree, "cycles")),
                              0, html);
                html += "</div></div>\n";
            }
        }
    }

    html += pageClose();
    return html;
}

// ---- history page ----------------------------------------------

/** "+40 trap_enters on R3000/null_syscall ≈ +480 cycles (100% of
 *  the regression)" — the bisect finding as one annotation line. */
std::string
findingLine(const BisectFinding &f)
{
    if (f.eventClass == "figure")
        return "<code>" + htmlEscape(f.unit) + "</code> moved " +
               fmtNum(f.delta) + " (" + fmtNum(100.0 * f.share) +
               "% of the regression)";
    return fmtNum(f.deltaCount) + " <code>" +
           htmlEscape(f.eventClass) + "</code> on <code>" +
           htmlEscape(f.unit) + "</code> ≈ " + fmtNum(f.delta) +
           " cycles (" + fmtNum(100.0 * f.share) +
           "% of the regression)";
}

std::string
historyHtml(const DashboardInputs &in, const DashboardOptions &opts,
            const HistoryData &hist)
{
    std::string html = pageOpen(4);
    if (!hist.present) {
        html += "<p class=\"muted\">No perf database provided. Pass "
                "<code>--db perfdb.jsonl</code> (see <code>"
                "aosd_trend</code> for ingest).</p>\n";
        html += pageClose();
        return html;
    }
    const PerfDb &db = *in.db;

    // -- record inventory --
    html += "<h2 id=\"records\">Records</h2>\n<table>\n"
            "<tr><th>id</th><th>host</th><th>build</th>"
            "<th>documents</th></tr>\n";
    for (const PerfDbRecord &rec : db.records()) {
        std::string docs;
        for (const std::string &name : rec.docNames()) {
            if (!docs.empty())
                docs += ", ";
            docs += name;
        }
        html += "<tr><td><code>" + htmlEscape(rec.id()) +
                "</code></td><td>" + htmlEscape(rec.host()) +
                "</td><td>" + htmlEscape(rec.buildFlags()) +
                "</td><td class=\"muted\">" + htmlEscape(docs) +
                "</td></tr>\n";
    }
    html += "</table>\n";

    // -- rolling-band flags with bisect annotations --
    html += "<h2 id=\"flags\">Rolling-band flags</h2>\n";
    html += "<p>" +
            fmtNum(static_cast<double>(hist.check.metricsChecked)) +
            " metric(s) checked against max(" +
            fmtNum(100.0 * opts.relTol) +
            "% of rolling median, 3×MAD) over up to " +
            fmtNum(static_cast<double>(opts.baselineWindow)) +
            " prior runs; " +
            fmtNum(static_cast<double>(hist.check.flags.size())) +
            " flagged.</p>\n";

    auto table = [&] {
        std::vector<std::unordered_map<std::string, double>> rows;
        rows.reserve(db.size());
        for (const PerfDbRecord &rec : db.records()) {
            std::unordered_map<std::string, double> row;
            for (const PerfLeaf &leaf : recordMetrics(rec))
                row.emplace(leaf.path, leaf.value);
            rows.push_back(std::move(row));
        }
        return rows;
    }();

    auto seriesOf = [&](const std::string &metric) {
        std::vector<double> values;
        for (const auto &row : table) {
            auto it = row.find(metric);
            if (it != row.end())
                values.push_back(it->second);
        }
        if (opts.historyLast > 0 &&
            values.size() > opts.historyLast)
            values.erase(values.begin(),
                         values.end() -
                             static_cast<std::ptrdiff_t>(
                                 opts.historyLast));
        return values;
    };

    std::size_t annotated = 0;
    for (std::size_t fi = 0; fi < hist.check.flags.size(); ++fi) {
        const TrendFlag &f = hist.check.flags[fi];
        if (opts.topFlags != 0 && annotated == opts.topFlags) {
            html += "<p class=\"muted\">… " +
                    fmtNum(static_cast<double>(
                        hist.check.flags.size() - annotated)) +
                    " more flag(s); run <code>aosd_trend check"
                    "</code> for the full list.</p>\n";
            break;
        }
        ++annotated;
        html += "<details open id=\"flag-" + fmtNum(fi) +
                "\"><summary><code>" + htmlEscape(f.metric) +
                "</code> — " + fmtNum(f.median) + " → <span "
                "class=\"bad\">" +
                fmtNum(f.latest) + "</span> (" +
                fmtNum(f.pctChange) + "%)</summary>\n";
        html += "<div class=\"cell\">" +
                sparklineSvg(seriesOf(f.metric), true) +
                " band ±" + fmtNum(f.bandHalfWidth) +
                ", pair <code>" + htmlEscape(f.fromId) +
                "</code> → <code>" + htmlEscape(f.toId) +
                "</code></div>\n";

        // Bisect the offending pair on the richest shared
        // document — the same preference order as aosd_bisect
        // --db.
        const PerfDbRecord *from = db.resolve(f.fromId);
        const PerfDbRecord *to = db.resolve(f.toId);
        const Json *old_doc = nullptr, *new_doc = nullptr;
        if (from && to)
            for (const char *doc :
                 {"counters", "kernel_windows", "report"}) {
                old_doc = from->doc(doc);
                new_doc = to->doc(doc);
                if (old_doc && new_doc)
                    break;
                old_doc = new_doc = nullptr;
            }
        if (old_doc && new_doc) {
            BisectResult b = bisectDocs(*old_doc, *new_doc);
            if (!b.findings.empty()) {
                html += "<p>bisect:</p>\n<ul>\n";
                for (std::size_t bi = 0;
                     bi < std::min<std::size_t>(3,
                                                b.findings.size());
                     ++bi)
                    html += "<li>" + findingLine(b.findings[bi]) +
                            "</li>\n";
                html += "</ul>\n";
            }
        } else {
            html += "<p class=\"muted\">no shared counters/"
                    "kernel_windows/report document to bisect."
                    "</p>\n";
        }
        html += "</details>\n";
    }
    if (hist.check.flags.empty())
        html += "<p class=\"ok\">No metric outside its rolling "
                "band.</p>\n";

    // -- per-metric sparkline rows, grouped by document --
    html += "<h2 id=\"metrics\">Metric trends</h2>\n";
    std::set<std::string> flagged;
    for (const TrendFlag &f : hist.check.flags)
        flagged.insert(f.metric);

    std::vector<std::string> metrics;
    for (const std::string &metric : allMetrics(db))
        metrics.push_back(metric);
    std::size_t shown = 0, suppressed = 0;
    std::string group;
    bool table_open = false;
    for (const std::string &metric : metrics) {
        std::vector<double> values = seriesOf(metric);
        if (values.empty())
            continue;
        bool bad = flagged.count(metric) > 0;
        if (!bad && opts.historyCap != 0 &&
            shown >= opts.historyCap) {
            ++suppressed;
            continue;
        }
        ++shown;
        std::string g = metric.substr(0, metric.find('.'));
        if (g != group) {
            if (table_open)
                html += "</table>\n";
            group = g;
            html += "<h3>" + htmlEscape(group) +
                    "</h3>\n<table>\n<tr><th>metric</th>"
                    "<th>trend</th><th class=\"num\">n</th>"
                    "<th class=\"num\">median</th>"
                    "<th class=\"num\">latest</th>"
                    "<th class=\"num\">Δ%</th>"
                    "<th>status</th></tr>\n";
            table_open = true;
        }
        RollingStats s = rollingStats(values, opts.baselineWindow);
        html += std::string("<tr") + (bad ? " class=\"flag\"" : "") +
                "><td><code>" + htmlEscape(metric) +
                "</code></td><td>" + sparklineSvg(values, bad) +
                "</td><td class=\"num\">" +
                fmtNum(static_cast<double>(values.size())) +
                "</td><td class=\"num\">" + fmtNum(s.median) +
                "</td><td class=\"num\">" + fmtNum(s.latest) +
                "</td><td class=\"num\">" + fmtNum(s.pctChange) +
                "%</td><td class=\"" + (bad ? "bad" : "ok") + "\">" +
                (bad ? "FLAGGED" : "ok") + "</td></tr>\n";
    }
    if (table_open)
        html += "</table>\n";
    if (suppressed > 0)
        html += "<p class=\"muted\">" +
                fmtNum(static_cast<double>(suppressed)) +
                " more metric(s) not shown (cap " +
                fmtNum(static_cast<double>(opts.historyCap)) +
                "); <code>aosd_trend html</code> renders the full "
                "list.</p>\n";

    html += pageClose();
    return html;
}

// ---- manifest + validation -------------------------------------

std::size_t
countOccurrences(const std::string &haystack,
                 const std::string &needle)
{
    std::size_t n = 0, pos = 0;
    while ((pos = haystack.find(needle, pos)) !=
           std::string::npos) {
        ++n;
        pos += needle.size();
    }
    return n;
}

/** Every value of `attr="..."` in `html`. */
std::vector<std::string>
attrValues(const std::string &html, const std::string &attr)
{
    std::vector<std::string> values;
    const std::string needle = attr + "=\"";
    std::size_t pos = 0;
    while ((pos = html.find(needle, pos)) != std::string::npos) {
        std::size_t start = pos + needle.size();
        std::size_t end = html.find('"', start);
        if (end == std::string::npos)
            break;
        values.push_back(html.substr(start, end - start));
        pos = end + 1;
    }
    return values;
}

Json
buildManifest(const DashboardSite &site, const DashboardInputs &in,
              const DashboardOptions &opts, const HistoryData &hist)
{
    Json manifest = Json::object();
    manifest.set("schema_version", Json(dashboardSchemaVersion));
    manifest.set("kind", Json("aosd-dashboard-manifest"));
    manifest.set("generator", Json("aosd_dashboard"));

    Json pages = Json::array();
    for (const DashboardPage &p : site.pages) {
        Json j = Json::object();
        j.set("file", Json(p.file));
        j.set("title", Json(p.title));
        j.set("anchors",
              Json(static_cast<std::uint64_t>(
                  countOccurrences(p.html, " id=\""))));
        j.set("internal_links",
              Json(static_cast<std::uint64_t>(
                  attrValues(p.html, "href").size())));
        pages.push(std::move(j));
    }
    manifest.set("pages", std::move(pages));

    Json inputs = Json::object();
    auto presence = [](bool present) {
        Json j = Json::object();
        j.set("present", Json(present));
        return j;
    };
    {
        Json j = presence(in.report != nullptr);
        if (in.report) {
            const Json *tables = jfind(in.report, "tables");
            j.set("tables",
                  Json(static_cast<std::uint64_t>(
                      tables && tables->isObject()
                          ? tables->items().size()
                          : 0)));
            j.set("figures",
                  Json(jnum(jfind(jfind(in.report, "summary"),
                                  "figures"))));
        }
        inputs.set("report", std::move(j));
    }
    {
        Json j = presence(in.counters != nullptr);
        if (in.counters)
            j.set("cells",
                  Json(static_cast<std::uint64_t>(
                      cellCount(jfind(in.counters, "machines")))));
        inputs.set("counters", std::move(j));
    }
    {
        Json j = presence(in.kernelWindows != nullptr);
        if (in.kernelWindows) {
            const Json *cells = jfind(in.kernelWindows, "cells");
            j.set("cells",
                  Json(static_cast<std::uint64_t>(
                      cells && cells->isObject()
                          ? cells->items().size()
                          : 0)));
        }
        inputs.set("kernel_windows", std::move(j));
    }
    {
        Json j = presence(in.profile != nullptr);
        if (in.profile)
            j.set("cells",
                  Json(static_cast<std::uint64_t>(
                      cellCount(jfind(in.profile, "machines")))));
        inputs.set("profile", std::move(j));
    }
    {
        Json j = presence(in.spans != nullptr);
        if (in.spans)
            j.set("cells",
                  Json(static_cast<std::uint64_t>(
                      cellCount(jfind(in.spans, "machines")))));
        inputs.set("spans", std::move(j));
    }
    {
        Json arr = Json::array();
        for (const Json *t : in.traffic) {
            Json j = Json::object();
            const Json *cfg = jfind(t, "config");
            j.set("mode", Json(jstr(jfind(cfg, "mode"), "?")));
            j.set("arrival",
                  Json(jstr(jfind(cfg, "arrival"), "?")));
            const Json *machines = jfind(t, "machines");
            j.set("machines",
                  Json(static_cast<std::uint64_t>(
                      machines && machines->isArray()
                          ? machines->size()
                          : 0)));
            std::uint64_t levels = 0;
            if (machines && machines->isArray() &&
                machines->size() > 0) {
                const Json *l =
                    jfind(&machines->at(0), "load_levels");
                if (l && l->isArray())
                    levels = l->size();
            }
            j.set("levels", Json(levels));
            arr.push(std::move(j));
        }
        inputs.set("traffic", std::move(arr));
    }
    {
        Json j = presence(hist.present);
        if (hist.present) {
            j.set("records", Json(static_cast<std::uint64_t>(
                                 in.db->size())));
            j.set("flags", Json(static_cast<std::uint64_t>(
                               hist.check.flags.size())));
        }
        inputs.set("history", std::move(j));
    }
    manifest.set("inputs", std::move(inputs));

    Json options = Json::object();
    options.set("rel_tol", Json(opts.relTol));
    options.set("baseline_window",
                Json(static_cast<std::uint64_t>(
                    opts.baselineWindow)));
    manifest.set("options", std::move(options));
    return manifest;
}

} // namespace

DashboardSite
buildDashboardSite(const DashboardInputs &in,
                   const DashboardOptions &opts,
                   ParallelRunner &runner)
{
    // The history analysis feeds both the overview gate table and
    // the history page; compute it once, before the fan-out, so the
    // pages stay independent tasks.
    HistoryData hist;
    if (in.db && !in.db->empty()) {
        hist.present = true;
        hist.check =
            checkTrends(*in.db, opts.relTol, opts.baselineWindow,
                        opts.historyFilter, opts.historySkip);
    }

    std::vector<std::function<std::string()>> tasks = {
        [&] { return overviewHtml(in, opts, hist); },
        [&] { return tablesHtml(in); },
        [&] { return latencyHtml(in); },
        [&] { return spansHtml(in); },
        [&] { return historyHtml(in, opts, hist); },
    };
    std::vector<std::string> html = runner.map<std::string>(tasks);

    DashboardSite site;
    for (std::size_t i = 0; i < std::size(kPages); ++i)
        site.pages.push_back(
            {kPages[i].file, kPages[i].title, std::move(html[i])});
    site.manifest = buildManifest(site, in, opts, hist);
    return site;
}

std::vector<std::string>
validateDashboardLinks(const DashboardSite &site)
{
    std::vector<std::string> problems;

    std::unordered_map<std::string, std::set<std::string>> ids;
    for (const DashboardPage &p : site.pages) {
        std::set<std::string> page_ids;
        for (const std::string &id : attrValues(p.html, " id"))
            page_ids.insert(id);
        ids[p.file] = std::move(page_ids);
    }
    ids["manifest.json"] = {};

    for (const DashboardPage &p : site.pages) {
        for (const std::string &href : attrValues(p.html, "href")) {
            if (href.rfind("http:", 0) == 0 ||
                href.rfind("https:", 0) == 0 ||
                href.rfind("mailto:", 0) == 0)
                continue;
            std::string file = href, anchor;
            std::size_t hash = href.find('#');
            if (hash != std::string::npos) {
                file = href.substr(0, hash);
                anchor = href.substr(hash + 1);
            }
            if (file.empty())
                file = p.file;
            auto it = ids.find(file);
            if (it == ids.end()) {
                problems.push_back(p.file + ": dangling href \"" +
                                   href + "\" (no page " + file +
                                   ")");
                continue;
            }
            if (!anchor.empty() && !it->second.count(anchor))
                problems.push_back(p.file + ": dangling href \"" +
                                   href + "\" (no id \"" + anchor +
                                   "\" in " + file + ")");
        }
    }
    return problems;
}

bool
writeDashboardSite(const DashboardSite &site, const std::string &dir,
                   std::string *error)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        if (error)
            *error = "cannot create " + dir + ": " + ec.message();
        return false;
    }
    for (const DashboardPage &p : site.pages) {
        std::ofstream out(dir + "/" + p.file);
        if (!(out << p.html)) {
            if (error)
                *error = "cannot write " + dir + "/" + p.file;
            return false;
        }
    }
    std::ofstream out(dir + "/manifest.json");
    if (!(out << site.manifest.dump(1) << '\n')) {
        if (error)
            *error = "cannot write " + dir + "/manifest.json";
        return false;
    }
    return true;
}

} // namespace aosd
