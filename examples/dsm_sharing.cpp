/**
 * @file
 * Example: Ivy-style distributed shared virtual memory (§3).
 *
 * Four workstations share a 64-page region over a 10 Mbit Ethernet.
 * A producer writes pages, consumers read them (replication), then a
 * different node takes over writing (invalidation). The run prints
 * protocol traffic and per-operation costs, and verifies coherence.
 *
 * Run: ./build/examples/example_dsm_sharing
 */

#include <cstdio>

#include "core/aosd.hh"

using namespace aosd;

int
main()
{
    const MachineDesc &m = sharedCostDb().machine(MachineId::R3000);
    IvyDsm dsm(m, /*nodes=*/4, /*pages=*/64);

    std::printf("Ivy DSM: 4 x %s over 10 Mbit Ethernet, 64 shared "
                "pages\n\n",
                m.name.c_str());

    // Phase 1: node 0 produces into the first 16 pages (it already
    // owns everything, so writes are local).
    double t = 0;
    for (std::uint64_t p = 0; p < 16; ++p)
        t += dsm.write(0, p);
    std::printf("producer (node 0) writes 16 pages:     %8.1f us\n", t);

    // Phase 2: nodes 1-3 read them: read faults, page transfers,
    // owner downgraded to read-only.
    t = 0;
    for (std::uint32_t n = 1; n < 4; ++n)
        for (std::uint64_t p = 0; p < 16; ++p)
            t += dsm.read(n, p);
    std::printf("3 consumers read all 16 pages:         %8.1f us "
                "(%llu page transfers)\n",
                t,
                static_cast<unsigned long long>(
                    dsm.counts().pageTransfers));

    // Phase 3: node 2 becomes the writer: every write invalidates the
    // other replicas.
    t = 0;
    for (std::uint64_t p = 0; p < 16; ++p)
        t += dsm.write(2, p);
    std::printf("node 2 takes write ownership:          %8.1f us "
                "(%llu invalidations)\n",
                t,
                static_cast<unsigned long long>(
                    dsm.counts().invalidations));

    // Phase 4: re-read from node 0: faults again, re-replicates.
    t = 0;
    for (std::uint64_t p = 0; p < 16; ++p)
        t += dsm.read(0, p);
    std::printf("node 0 re-reads (re-replication):      %8.1f us\n\n",
                t);

    std::printf("coherence invariant (single writer): %s\n",
                dsm.coherent() ? "holds" : "VIOLATED");
    std::printf("protocol totals: %llu read faults, %llu write "
                "faults, %llu transfers, %llu invalidations\n",
                static_cast<unsigned long long>(
                    dsm.counts().readFaults),
                static_cast<unsigned long long>(
                    dsm.counts().writeFaults),
                static_cast<unsigned long long>(
                    dsm.counts().pageTransfers),
                static_cast<unsigned long long>(
                    dsm.counts().invalidations));

    std::printf("\n(s3: DSM hinges on fast traps and PTE changes - "
                "on this machine a trap is\n%.1f us and a PTE change "
                "%.1f us, before any network time)\n",
                sharedCostDb().micros(m.id, Primitive::Trap),
                sharedCostDb().micros(m.id, Primitive::PteChange));
    return 0;
}
