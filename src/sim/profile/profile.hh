/**
 * @file
 * Hierarchical cycle-attribution profiler.
 *
 * The paper's core move is attribution: Table 5 explains a null system
 * call by decomposing it into kernel entry/exit, call preparation and
 * the C call, and §2.3/§3.2 charge the remainder to register-window
 * flushes, write-buffer stalls and TLB refills. This layer gives the
 * simulator the same power programmatically: RAII ProfScope spans name
 * a tree of causes (e.g. syscall/kernel_entry_exit/trap_hardware), and
 * every simulated cycle charged while profiling is attributed to
 * exactly one node of that tree.
 *
 * The one component that attributes is handler execution:
 * ExecModel::run opens a scope per phase and charges each stream's
 * cause leaves. profilePrimitive() (cpu/profiled_primitives.hh) drives
 * it for profile.json, Table 5 and the folded stacks; kernel, thread
 * and IPC charging attribute nothing.
 *
 * Invariant: attributedCycles() == sumOfLeaves() == the cycles the
 * handlers charged while the profiler was enabled. tools/aosd_profile
 * asserts this per machine × primitive, so "where did the cycles go"
 * always sums to "how long did it take".
 *
 * Profiling is off by default; a disabled ProfScope costs one test of
 * the observer mask (sim/observers.hh). The hooks are always compiled
 * in: Table 5's system-call anatomy is read off this tree (see
 * EXPERIMENTS.md).
 *
 * Profiler state is per thread: each simulation slice (see
 * sim/parallel/parallel_runner.hh) attributes into its own tree, and
 * each cell's result carries its own tree back in task-index order.
 */

#ifndef AOSD_SIM_PROFILE_PROFILE_HH
#define AOSD_SIM_PROFILE_PROFILE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/json.hh"
#include "sim/observers.hh"
#include "sim/profile/histogram.hh"
#include "sim/ticks.hh"

namespace aosd
{

/** Cheapest possible "is profiling on?" check for hot paths. */
inline bool
profilerEnabled()
{
    return observing(observeProfile);
}

/** One node of the attribution tree. */
struct ProfNode
{
    std::string name;
    ProfNode *parent = nullptr;
    std::vector<std::unique_ptr<ProfNode>> children;
    /** Cycles attributed directly to this node (not to children). */
    Cycles selfCycles = 0;
    /** Scope entries / attribution events at this node. */
    std::uint64_t entries = 0;
    /** Inclusive cycles per completed span (drives p50/p90/p99). */
    Histogram spans;

    /** Find-or-create a child (linear scan; fan-out is small). */
    ProfNode *child(const char *child_name);

    /** Existing child by name, nullptr if absent. */
    const ProfNode *find(const std::string &child_name) const;

    /** selfCycles plus every descendant's. */
    Cycles totalCycles() const;

    /** {"self_cycles":..,"total_cycles":..,"count":..,
     *   "p50_cycles":..,"p90_cycles":..,"p99_cycles":..,
     *   "children":{name: {...}}} — children keyed by name, in
     *  first-entry order, so diffing tools address figures by path. */
    Json toJson() const;
};

/**
 * The calling thread's profiler (per-thread, one per simulation
 * slice). Scopes (ProfScope) maintain the current position in the
 * tree; instrumented components attribute cycles at that position via
 * addCycles() or to a named leaf below it via addLeafCycles().
 */
class Profiler
{
  public:
    /** The calling thread's profiler. */
    static Profiler &instance();

    /** Clear the tree and start attributing. Must not be called with
     *  ProfScopes alive (live scopes detach harmlessly but their spans
     *  are lost). */
    void enable();

    /** Stop attributing; the tree remains readable. */
    void disable() { setObserving(observeProfile, false); }

    bool enabled() const { return profilerEnabled(); }

    /** Drop the tree (enablement unchanged). */
    void clear();

    /** Attribute cycles to the innermost open scope (the tree root
     *  when no scope is open). */
    void
    addCycles(Cycles c)
    {
        if (!profilerEnabled())
            return;
        cur->selfCycles += c;
        attributed += c;
    }

    /** Attribute cycles to a named leaf child of the current scope,
     *  creating it on first use. Counts one attribution event and
     *  samples the leaf's histogram with `c`. */
    void addLeafCycles(const char *leaf, Cycles c);

    /** Every cycle attributed since enable(). */
    Cycles attributedCycles() const { return attributed; }

    /** Root of the attribution tree. */
    const ProfNode &root() const { return rootNode; }

    /** Node at `path` below the root, nullptr if absent. */
    const ProfNode *node(const std::vector<std::string> &path) const;

    /** Recomputed sum of selfCycles over the whole tree; equals
     *  attributedCycles() (the self-check tools and tests assert). */
    Cycles sumOfLeaves() const;

    /** The root's toJson(). */
    Json toJson() const;

    /**
     * Collapsed-stack ("folded") export: one line per node with
     * self-attributed cycles, frames joined by ';', consumable by
     * standard flamegraph tooling (flamegraph.pl, speedscope, inferno).
     * `prefix` frames are prepended to every stack.
     */
    std::string collapsedStacks(const std::string &prefix = "") const;

  private:
    friend class ProfScope;

    Profiler() { rootNode.name = "root"; }

    ProfNode *push(const char *name);
    void pop(ProfNode *node, Cycles entry_attributed,
             std::uint64_t entry_generation);

    std::uint64_t generation = 0; ///< bumped by enable()/clear()
    Cycles attributed = 0;
    ProfNode rootNode;
    ProfNode *cur = &rootNode;
};

/**
 * RAII span: descends into a named child of the current node for its
 * lifetime. Exception-safe (the destructor pops); reentrant (a scope
 * with the name of its parent simply nests). `name` must outlive the
 * scope (string literals in practice).
 */
class ProfScope
{
  public:
    explicit ProfScope(const char *name)
    {
        if (!profilerEnabled())
            return;
        Profiler &p = Profiler::instance();
        entryAttributed = p.attributedCycles();
        entryGeneration = p.generation;
        node = p.push(name);
    }

    ~ProfScope()
    {
        if (node)
            Profiler::instance().pop(node, entryAttributed,
                                     entryGeneration);
    }

    ProfScope(const ProfScope &) = delete;
    ProfScope &operator=(const ProfScope &) = delete;

  private:
    ProfNode *node = nullptr;
    Cycles entryAttributed = 0;
    std::uint64_t entryGeneration = 0;
};

} // namespace aosd

#endif // AOSD_SIM_PROFILE_PROFILE_HH
