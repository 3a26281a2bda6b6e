/**
 * @file
 * Machine-readable figures: every number the reproduction simulates,
 * next to the paper's value where the paper gives one.
 *
 * The bench binaries pretty-print these; tools/aosd_report serializes
 * them to report.json; tests/test_report_regression.cc diffs them
 * against a checked-in snapshot so CI catches any drift in any
 * simulated figure. One Figure == one cell of one paper table (or one
 * headline scalar from the prose).
 */

#ifndef AOSD_STUDY_FIGURES_HH
#define AOSD_STUDY_FIGURES_HH

#include <cmath>
#include <string>
#include <vector>

namespace aosd
{

/** One simulated number, optionally anchored to a paper value. */
struct Figure
{
    /** Unique within its table, e.g. "null_syscall_us.CVAX". */
    std::string id;
    /** Which paper table it belongs to ("table1" ... "table7",
     *  "headlines"). */
    std::string table;
    /** Unit slug: "us", "instructions", "words", "count", "percent",
     *  "x" (ratio), "s". */
    std::string unit;
    double sim = 0.0;
    /** NaN when the paper gives no value for this cell. */
    double paper = std::nan("");

    bool hasPaper() const { return !std::isnan(paper); }

    /** (sim - paper) / |paper|; NaN when no paper value or paper is
     *  zero with a nonzero simulation. */
    double
    relativeError() const
    {
        if (!hasPaper())
            return std::nan("");
        if (paper == 0.0)
            return sim == 0.0 ? 0.0 : std::nan("");
        return (sim - paper) / std::fabs(paper);
    }
};

class ParallelRunner;
struct Table7Row;

/*
 * Every builder has two forms: the zero-argument original, and an
 * overload taking a ParallelRunner that fans the table's independent
 * simulation cells (one job per machine, primitive or Table 7
 * (structure, app) cell) across the runner's workers. The zero-arg
 * form delegates to the overload with a serial (jobs == 1) runner, so
 * there is exactly one implementation of every table and the two
 * forms cannot drift apart. Figures always come back in table order —
 * the runner merges by task index, never completion order — so the
 * output is byte-identical at any job count.
 *
 * The three readers of the R3000 Table 7 grid (table7Figures,
 * headlineFigures, kernelWindowFigures) also take the grid's rows, in
 * runMachGrid order. Their runner forms simulate the grid and delegate
 * to the row form; allFigures simulates it once and hands the same
 * rows to all three.
 */

/** Table 1: primitive times (us) per machine, vs paper. */
std::vector<Figure> table1Figures();
std::vector<Figure> table1Figures(ParallelRunner &runner);

/** Table 2: dynamic instruction counts per machine, vs paper. */
std::vector<Figure> table2Figures();
std::vector<Figure> table2Figures(ParallelRunner &runner);

/** Table 3: SRC RPC breakdown (CVAX Firefly) + wire-share anchors. */
std::vector<Figure> table3Figures();
std::vector<Figure> table3Figures(ParallelRunner &runner);

/** Table 4: LRPC breakdown, totals and TLB share, vs paper anchors. */
std::vector<Figure> table4Figures();
std::vector<Figure> table4Figures(ParallelRunner &runner);

/** Table 5: null-syscall phase decomposition, vs paper. */
std::vector<Figure> table5Figures();
std::vector<Figure> table5Figures(ParallelRunner &runner);

/** Table 6: processor thread state words, vs paper. */
std::vector<Figure> table6Figures();
std::vector<Figure> table6Figures(ParallelRunner &runner);

/** Table 7: Mach 2.5 vs 3.0 OS-primitive reliance, vs paper. */
std::vector<Figure> table7Figures();
std::vector<Figure> table7Figures(ParallelRunner &runner);
std::vector<Figure> table7Figures(const std::vector<Table7Row> &grid);

/** Headline prose anchors (context-switch inflation, SPARC overhead
 *  seconds, register-window share...). */
std::vector<Figure> headlineFigures();
std::vector<Figure> headlineFigures(ParallelRunner &runner);
std::vector<Figure> headlineFigures(const std::vector<Table7Row> &grid);

/** Hardware-counter reconciliation: percent of each Table 1
 *  machine x primitive's cycles explained by event counts times
 *  modeled penalties (100 when the counters are honest). */
std::vector<Figure> countersFigures();
std::vector<Figure> countersFigures(ParallelRunner &runner);

/** Kernel-window reconciliation: percent of each Table 7
 *  (app, OS structure) cell's charged primitive cycles explained by
 *  counted kernel events times the machine's primitive costs. */
std::vector<Figure> kernelWindowFigures();
std::vector<Figure> kernelWindowFigures(ParallelRunner &runner);
/** `grid` must come from a config with measureKernelWindow set. */
std::vector<Figure>
kernelWindowFigures(const std::vector<Table7Row> &grid);

/** Per-machine counter calibration: the §2.3/§3.2 event rates the
 *  paper argues from — write-buffer stalls per store (DS3100's R2000
 *  vs DS5000's R3000), TLB misses re-established per context switch,
 *  SPARC windows spilled per switch — measured from counted runs. */
std::vector<Figure> calibrationFigures();
std::vector<Figure> calibrationFigures(ParallelRunner &runner);

/** All of the above, in table order. The R3000 Table 7 grid is
 *  simulated once per call, with measureKernelWindow set, and read by
 *  all three grid builders. Nothing outlives the call, so every call
 *  simulates the grid afresh. */
std::vector<Figure> allFigures();
std::vector<Figure> allFigures(ParallelRunner &runner);

} // namespace aosd

#endif // AOSD_STUDY_FIGURES_HH
