/**
 * @file
 * The profile.json document: hierarchical cycle attribution for every
 * machine x primitive, plus the Table 5 anatomy derived from the
 * NullSyscall tree.
 *
 * tools/aosd_profile serializes this document;
 * tests/test_profile.cc diffs it against tests/expected_profile.json.
 * The document builder lives here (not in the tool) so the parallel
 * and serial paths share one implementation and the golden stays
 * byte-for-byte stable at any job count.
 */

#ifndef AOSD_STUDY_PROFILE_REPORT_HH
#define AOSD_STUDY_PROFILE_REPORT_HH

#include <string>
#include <vector>

#include "arch/machine_desc.hh"
#include "cpu/profiled_primitives.hh"
#include "sim/json.hh"

namespace aosd
{

class ParallelRunner;

/** All profiled runs for `machines` (every primitive, `reps` each),
 *  one (machine, primitive) session per runner job; runs come back
 *  machine-major in `machines` order (task-index merge). */
std::vector<ProfiledPrimitiveRun>
profileAllPrimitives(const std::vector<MachineDesc> &machines,
                     unsigned reps, ParallelRunner &runner);

/**
 * profile.json (schema version 1). `runs` must be the machine-major
 * grid profileAllPrimitives() returns for the same `machines`.
 *
 *   {
 *     "schema_version": 1,
 *     "generator": "aosd_profile",
 *     "repetitions": R,
 *     "machines": {
 *       "<machine>": {
 *         "<primitive>": {
 *           "cycles_per_call": c, "us_per_call": us,
 *           "total_cycles": n, "attributed_cycles": n,
 *           "attribution_complete": true,
 *           "tree": { "self_cycles": ..., "total_cycles": ...,
 *                     "count": ..., "p50_cycles": ...,
 *                     "p90_cycles": ..., "p99_cycles": ...,
 *                     "children": { "<name>": { ... } } }
 *         }, ...
 *       }, ...
 *     },
 *     "table5_anatomy": {
 *       "<machine>": { "kernel_entry_exit_us": ..., "call_prep_us":
 *                      ..., "c_call_return_us": ..., "total_us": ... }
 *     }
 *   }
 */
Json buildProfileDoc(const std::vector<MachineDesc> &machines,
                     const std::vector<ProfiledPrimitiveRun> &runs,
                     unsigned reps);

/** Concatenated collapsed-stack lines of every run, in run order
 *  (flamegraph.pl / speedscope input). */
std::string foldedStacks(const std::vector<ProfiledPrimitiveRun> &runs);

} // namespace aosd

#endif // AOSD_STUDY_PROFILE_REPORT_HH
