/**
 * @file
 * aosd_diff: run-to-run comparison of performance documents.
 *
 *   aosd_diff old.json new.json            # default 1% tolerance
 *   aosd_diff --tol 0.05 old.json new.json # 5% relative tolerance
 *   aosd_diff --abs 0.5 old.json new.json  # ignore tiny absolute moves
 *   aosd_diff --tol-key 'p999=0.10' old.json new.json
 *                                          # wider band for one leaf
 *                                          # key (repeatable)
 *   aosd_diff --all old.json new.json      # also list unchanged paths
 *   aosd_diff --top 20 old.json new.json   # cap printed regressions
 *
 * Works on any JSON document whose leaves are numbers — profile.json
 * from aosd_profile, report.json from aosd_report, timeseries.json
 * (array leaves get their element index in the dotted path, so one
 * moved sample names itself), BENCH_simperf.json from
 * google-benchmark. Both documents are flattened to stable dotted
 * paths; any pair differing beyond tolerance, and any path present on
 * only one side, is a regression.
 *
 * When the two documents disagree in *shape* — a key that vanished, a
 * sample array that changed length, an object that became a scalar —
 * the summary also names the first structural mismatch by dotted
 * path, so schema drift is diagnosable from one log line instead of
 * from hundreds of MISSING/ADDED leaves.
 *
 * Exit status: 0 all within tolerance, 1 regressions (each named on
 * stdout), 2 usage or I/O error.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "sim/cli.hh"
#include "sim/numeric_flags.hh"
#include "study/perfdiff.hh"

using namespace aosd;

int
main(int argc, char **argv)
{
    double rel_tol = 0.01;
    double abs_tol = 1e-9;
    KeyTolerances key_tols;
    bool show_all = false;
    std::size_t top = 0;
    std::vector<std::string> files;

    Cli cli("[options] old.json new.json");
    cli.number("--tol", "REL", "relative tolerance (default 0.01 = 1%)",
               rel_tol, 0)
        .number("--abs", "ABS",
                "absolute slack for near-zero values (default 1e-9)",
                abs_tol, 0)
        .keyValue("--tol-key", "KEY=REL",
                  "relative tolerance for leaves whose last dotted "
                  "segment is KEY (e.g. 'p999=0.10'; first match wins)",
                  "KEY=REL with REL a number >= 0",
                  [&key_tols](const std::string &key,
                              const std::string &rel) {
                      double tol = 0;
                      if (!parseNumber(rel, tol) || tol < 0)
                          return false;
                      key_tols.emplace_back(key, tol);
                      return true;
                  })
        .toggle("--all", "also print paths within tolerance", show_all)
        .whole("--top", "N",
               "print at most N regressions (0 = all, the default)", top)
        .positionals(files, 2);
    if (auto rc = cli.parseOrExit(argc, argv))
        return *rc;
    if (files.size() != 2) {
        std::fprintf(stderr, "%s: wants two files, old.json new.json\n",
                     argv[0]);
        return 2;
    }

    Json old_doc, new_doc;
    if (!readJsonFile(files[0], old_doc) ||
        !readJsonFile(files[1], new_doc))
        return 2;

    PerfDiff diff =
        diffPerfDocs(old_doc, new_doc, rel_tol, abs_tol, key_tols);

    std::size_t printed = 0;
    std::size_t suppressed = 0;
    for (const PerfDelta &d : diff.deltas) {
        if (top != 0 && d.kind != PerfDelta::Kind::Within &&
            printed == top) {
            ++suppressed;
            continue;
        }
        if (d.kind != PerfDelta::Kind::Within)
            ++printed;
        switch (d.kind) {
          case PerfDelta::Kind::Changed:
            std::printf("REGRESSION %s: %g -> %g (%+.2f%%)\n",
                        d.path.c_str(), d.oldValue, d.newValue,
                        100.0 * (d.newValue - d.oldValue) /
                            (d.oldValue != 0 ? std::abs(d.oldValue)
                                             : 1.0));
            break;
          case PerfDelta::Kind::Missing:
            std::printf("MISSING    %s: %g -> (absent)\n",
                        d.path.c_str(), d.oldValue);
            break;
          case PerfDelta::Kind::Added:
            std::printf("ADDED      %s: (absent) -> %g\n",
                        d.path.c_str(), d.newValue);
            break;
          case PerfDelta::Kind::Within:
            if (show_all)
                std::printf("ok         %s: %g -> %g\n",
                            d.path.c_str(), d.oldValue, d.newValue);
            break;
        }
    }

    if (suppressed)
        std::printf("... %zu more regression(s) suppressed by "
                    "--top %zu\n",
                    suppressed, top);
    StructuralMismatch shape =
        firstStructuralMismatch(old_doc, new_doc);
    if (shape.found)
        std::printf("STRUCTURE  %s: %s (first structural "
                    "mismatch)\n",
                    shape.path.empty() ? "(root)"
                                       : shape.path.c_str(),
                    shape.description.c_str());
    std::printf("%zu path(s) compared, %zu regression(s) "
                "(rel tol %g, abs tol %g)\n",
                diff.compared, diff.regressions, rel_tol, abs_tol);
    return diff.ok() ? 0 : 1;
}
