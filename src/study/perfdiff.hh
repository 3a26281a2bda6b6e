/**
 * @file
 * Numeric diffing of two JSON performance documents.
 *
 * aosd_profile and aosd_report both emit trees of numeric figures
 * (cycles, microseconds, counts) keyed by stable object paths. A
 * run-to-run comparison is therefore one generic operation: flatten
 * both documents to path -> number, align the paths, and flag any
 * relative change beyond tolerance. tools/aosd_diff wraps this; the
 * CI regression gate runs it against checked-in expectations.
 */

#ifndef AOSD_STUDY_PERFDIFF_HH
#define AOSD_STUDY_PERFDIFF_HH

#include <string>
#include <vector>

#include "sim/json.hh"

namespace aosd
{

/** One numeric leaf: "machines.R2000.null_syscall.cycles_per_call". */
struct PerfLeaf
{
    std::string path;
    double value = 0;
};

/** One compared path (or a path present on only one side). */
struct PerfDelta
{
    enum class Kind
    {
        Changed, ///< both sides present, beyond tolerance
        Within,  ///< both sides present, within tolerance
        Missing, ///< in the old document only
        Added,   ///< in the new document only
    };

    Kind kind = Kind::Within;
    std::string path;
    double oldValue = 0;
    double newValue = 0;
    /** |new - old| / max(|old|, |new|); 0 when either side is absent. */
    double relDelta = 0;
};

/** Result of diffing two documents. */
struct PerfDiff
{
    std::vector<PerfDelta> deltas; ///< document order (old, then added)
    std::size_t compared = 0;      ///< paths present on both sides
    std::size_t regressions = 0;   ///< Changed + Missing + Added

    bool ok() const { return regressions == 0; }
};

/**
 * Depth-first flatten of every numeric leaf under `doc`. Object keys
 * join with '.', array elements with their index; non-numeric leaves
 * (strings, bools, nulls) are skipped. Non-finite leaves are skipped
 * too, as dump() writes them as null: report.json uses NaN for "paper
 * has no value", and an in-memory document flattens as its dump would.
 */
std::vector<PerfLeaf> flattenNumericLeaves(const Json &doc);

/** A per-key relative-tolerance override: applies to every path whose
 *  last dotted segment equals `key` ("p999" matches
 *  "machines.R3000.trap.cycles.p999"). */
using KeyTolerances = std::vector<std::pair<std::string, double>>;

/**
 * Compare two documents leaf by leaf. A pair of values differs when
 * |new - old| > abs_tol and the relative delta exceeds rel_tol; paths
 * present on one side only always count as regressions. `key_tols`
 * overrides rel_tol per leaf key — the first matching entry wins —
 * so one noisy figure class (p999 of a 1000-sample histogram, say)
 * can run with a wider band than the rest of the document.
 */
PerfDiff diffPerfDocs(const Json &old_doc, const Json &new_doc,
                      double rel_tol, double abs_tol = 1e-9,
                      const KeyTolerances &key_tols = {});

/** The first place two documents disagree in *shape*. */
struct StructuralMismatch
{
    bool found = false;
    /** Dotted path of the mismatch ("" for the document roots). */
    std::string path;
    /** "missing key", "array length 10 -> 12", "object -> number". */
    std::string description;
};

/**
 * Depth-first parallel walk naming the first structural difference:
 * a key present on one side only, an array-length change, or a node
 * changing JSON kind. Schema drift between two supposedly-same-shape
 * documents (trend ingest, CI goldens) is then diagnosable from one
 * line instead of from hundreds of MISSING/ADDED leaves.
 */
StructuralMismatch firstStructuralMismatch(const Json &old_doc,
                                           const Json &new_doc);

} // namespace aosd

#endif // AOSD_STUDY_PERFDIFF_HH
