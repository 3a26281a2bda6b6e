/**
 * @file
 * Example: a fine-grained parallel program on the thread package (§4).
 *
 * Models an or-parallel search (parthenon-style): 8 worker threads
 * expand nodes (short slices) and synchronize on a shared work-queue
 * lock. Runs the identical program as user-level and kernel-level
 * threads on the R3000 and the SPARC, demonstrating the ThreadPackage
 * public API and the §4 conclusion about processor state.
 *
 * Run: ./build/examples/example_finegrain_threads
 */

#include <cstdio>

#include "core/aosd.hh"

using namespace aosd;

namespace
{

double
runSearch(const MachineDesc &m, ThreadLevel level)
{
    ThreadPackage pkg(m, level);
    pkg.setLockCount(1);
    const unsigned workers = 8;
    const unsigned nodes_per_worker = 200;
    for (unsigned w = 0; w < workers; ++w) {
        std::vector<WorkSlice> slices;
        for (unsigned i = 0; i < nodes_per_worker; ++i) {
            slices.push_back({60, 0});      // pop work (locked)
            slices.push_back({400, -1});    // expand the node
        }
        pkg.create(std::move(slices));
    }
    pkg.runToCompletion();
    std::printf("    %-12s %8.0f us  (%llu switches, %llu lock "
                "acquires, %llu contended)\n",
                level == ThreadLevel::User ? "user-level:"
                                           : "kernel-level:",
                pkg.elapsedMicros(),
                static_cast<unsigned long long>(
                    pkg.counts().switches),
                static_cast<unsigned long long>(
                    pkg.counts().lockAcquires),
                static_cast<unsigned long long>(
                    pkg.counts().lockContended));
    return pkg.elapsedMicros();
}

} // namespace

int
main()
{
    std::printf("Or-parallel search: 8 workers x 200 nodes, shared "
                "work queue\n\n");

    for (MachineId id : {MachineId::R3000, MachineId::SPARC,
                         MachineId::RS6000}) {
        const MachineDesc &m = sharedCostDb().machine(id);
        ThreadCosts costs = computeThreadCosts(m);
        std::printf("%s (user switch %llu cycles = %.0f procedure "
                    "calls, lock via %s):\n",
                    m.name.c_str(),
                    static_cast<unsigned long long>(
                        costs.userThreadSwitch),
                    costs.switchToCallRatio(),
                    lockImplName(naturalLockImpl(m)));
        double user = runSearch(m, ThreadLevel::User);
        double kern = runSearch(m, ThreadLevel::Kernel);
        std::printf("    user-level threads are %.1fx faster here\n\n",
                    kern / user);
    }

    std::printf("(s4.1: large processor state makes fine-grained "
                "threads expensive; the MIPS\nadditionally pays a "
                "kernel trap per lock because it has no test&set)\n");
    return 0;
}
