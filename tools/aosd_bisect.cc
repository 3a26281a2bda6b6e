/**
 * @file
 * aosd_bisect: explain a performance regression in event terms.
 *
 *   aosd_bisect old.json new.json            # ranked explanation
 *   aosd_bisect --top 5 old.json new.json    # only the 5 biggest
 *   aosd_bisect --json out.json old.json new.json
 *   aosd_bisect --db perfdb.jsonl --from <ref> --to <ref> \
 *       [--doc counters]                     # any historical pair
 *
 * Both inputs must be the same kind of document:
 *   - counters.json pairs (aosd_counters --json): every
 *     (machine, primitive) cell's reconciliation terms are diffed, so
 *     each moved event class arrives pre-priced with the machine's own
 *     penalty constants — "+40 cold_misses on sparc/context_switch
 *     ~ +520.0 cycles (87.0% of the regression)".
 *   - kernel-windows pairs (aosd_counters --kernel-windows --json):
 *     same term-level story for the SimKernel workload windows.
 *   - report.json pairs (aosd_report --json): no term decomposition
 *     exists, so the ranking is per-figure.
 *
 * The --db mode reads the pair from the perf database instead of
 * live files: --from/--to take a record id, a commit (or unique
 * prefix), 'latest' or -N, and --doc picks the stored document
 * (default: counters when both records carry it, else
 * kernel_windows, else report) — so any two historical runs can be
 * bisected long after their CI artifacts expired.
 *
 * This is an explainer, not a gate: exit 0 whether or not anything
 * moved (2 on usage or I/O error). CI runs it automatically when the
 * counters or report diff gate fails, and on every aosd_trend check
 * flag (which prints the exact --from/--to pair to use).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "sim/cli.hh"
#include "sim/perfdb/perfdb.hh"
#include "study/bisect.hh"

using namespace aosd;

namespace
{

const char *
docMode(const Json &doc)
{
    if (doc.find("machines"))
        return "counters";
    if (doc.find("cells"))
        return "kernel-windows";
    if (doc.find("tables"))
        return "report";
    return "unknown";
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t top = 10;
    std::string json_path;
    std::string db_path, from_ref, to_ref, doc_name;
    std::vector<std::string> files;

    Cli cli("[options] old.json new.json\n"
            "       aosd_bisect [options] --db perfdb.jsonl --from REF "
            "--to REF [--doc NAME]\n"
            "accepts counters.json, kernel-windows or report.json pairs");
    cli.whole("--top", "N", "print at most N findings (default 10, 0 = all)",
              top)
        .text("--json", "path",
              "also write the full ranked explanation as JSON", json_path)
        .text("--db", "path", "read the pair from a perf database",
              db_path)
        .text("--from", "REF",
              "record id, commit (or unique prefix), 'latest', or -N "
              "(N runs back)",
              from_ref)
        .text("--to", "REF", "the same forms as --from", to_ref)
        .text("--doc", "NAME",
              "stored document to bisect (default: counters, else "
              "kernel_windows, else report)",
              doc_name)
        .positionals(files, 2);
    if (auto rc = cli.parseOrExit(argc, argv))
        return *rc;

    bool db_mode = !db_path.empty();
    if (db_mode ? (!files.empty() || from_ref.empty() || to_ref.empty())
                : files.size() != 2) {
        std::fprintf(stderr,
                     "%s: wants two files, old.json new.json, or --db "
                     "with --from and --to\n",
                     argv[0]);
        return 2;
    }

    Json old_doc, new_doc;
    std::string pair_label;
    if (db_mode) {
        PerfDb db;
        std::string error;
        if (!db.load(db_path, &error)) {
            std::fprintf(stderr, "%s: %s\n", db_path.c_str(),
                         error.c_str());
            return 2;
        }
        const PerfDbRecord *from = db.resolve(from_ref, &error);
        if (!from) {
            std::fprintf(stderr, "--from %s\n", error.c_str());
            return 2;
        }
        const PerfDbRecord *to = db.resolve(to_ref, &error);
        if (!to) {
            std::fprintf(stderr, "--to %s\n", error.c_str());
            return 2;
        }
        if (doc_name.empty()) {
            // The richest shared document wins: counters cells carry
            // pre-priced terms, report figures do not.
            for (const char *candidate :
                 {"counters", "kernel_windows", "report"}) {
                if (from->doc(candidate) && to->doc(candidate)) {
                    doc_name = candidate;
                    break;
                }
            }
            if (doc_name.empty()) {
                std::fprintf(stderr,
                             "records %s and %s share no counters/"
                             "kernel_windows/report document\n",
                             from->id().c_str(), to->id().c_str());
                return 2;
            }
        }
        const Json *od = from->doc(doc_name);
        const Json *nd = to->doc(doc_name);
        if (!od || !nd) {
            std::fprintf(stderr,
                         "document '%s' is missing from %s\n",
                         doc_name.c_str(),
                         (od ? to->id() : from->id()).c_str());
            return 2;
        }
        old_doc = *od;
        new_doc = *nd;
        pair_label = doc_name + " of " + from->id() + " -> " +
                     to->id();
    } else if (!readJsonFile(files[0], old_doc) ||
               !readJsonFile(files[1], new_doc)) {
        return 2;
    }

    BisectResult r = bisectDocs(old_doc, new_doc);
    const char *mode = docMode(new_doc);

    if (!json_path.empty() && !writeFile(json_path, r.toJson().dump(1)))
        return 2;

    if (!pair_label.empty())
        std::printf("aosd_bisect: %s\n", pair_label.c_str());
    std::printf("aosd_bisect (%s): total move %+.1f cycles, "
                "%zu finding(s)\n",
                mode, r.totalDelta, r.findings.size());
    if (r.findings.empty())
        std::printf("  nothing moved between the two documents\n");

    std::size_t shown = 0;
    for (const BisectFinding &f : r.findings) {
        if (top != 0 && shown == top) {
            std::printf("  ... %zu more finding(s); rerun with "
                        "--top 0 for all\n",
                        r.findings.size() - shown);
            break;
        }
        ++shown;
        if (f.eventClass == "figure") {
            std::printf(" %2zu. %s moved %+g (%.1f%% of the total "
                        "move)\n",
                        shown, f.unit.c_str(), f.delta,
                        100.0 * f.share);
        } else if (f.eventClass == "(unattributed)") {
            std::printf(" %2zu. %+.1f unattributed cycles on %s "
                        "(%.1f%% of the regression)\n",
                        shown, f.delta, f.unit.c_str(),
                        100.0 * f.share);
        } else {
            std::printf(" %2zu. %+g %s on %s ~ %+.1f cycles "
                        "(%.1f%% of the regression)\n",
                        shown, f.deltaCount, f.eventClass.c_str(),
                        f.unit.c_str(), f.delta, 100.0 * f.share);
        }
    }
    for (const std::string &n : r.notes)
        std::printf("  note: %s\n", n.c_str());
    return 0;
}
