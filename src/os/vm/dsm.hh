/**
 * @file
 * Ivy-style distributed shared virtual memory (§3, [Li & Hudak 89]).
 *
 * Pages are replicated read-only across workstation nodes; a write
 * fault runs an invalidation-based coherence protocol: all replicas are
 * invalidated, the writer becomes the unique owner with a read-write
 * mapping. A later remote read faults, re-replicates, and downgrades
 * the owner back to read-only. Faults are charged through each node's
 * SimKernel; protocol messages and page transfers ride the RPC model
 * over the Ethernet, so the end-to-end cost of software coherence on
 * 1991 primitives is visible.
 */

#ifndef AOSD_OS_VM_DSM_HH
#define AOSD_OS_VM_DSM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "net/ethernet.hh"
#include "os/ipc/rpc.hh"
#include "os/kernel/kernel.hh"

namespace aosd
{

/** A node's access right to a DSM page. */
enum class DsmAccess
{
    None,
    Read,
    Write,
};

/** Ivy coherence manager over N simulated nodes (same machine type). */
class IvyDsm
{
  public:
    /** The protocol's fault and message counts. */
    struct Counts
    {
        std::uint64_t readFaults = 0;
        std::uint64_t writeFaults = 0;
        std::uint64_t pageTransfers = 0;
        std::uint64_t invalidations = 0;
    };

    /**
     * @param machine   node architecture (all nodes identical)
     * @param nodes     number of workstations
     * @param pages     size of the shared region in pages
     */
    IvyDsm(const MachineDesc &machine, std::uint32_t nodes,
           std::uint64_t pages, EthernetDesc link = {});

    /** Perform a read on `page` from `node`; faults run the protocol.
     *  @return microseconds the operation took on that node. */
    double read(std::uint32_t node, std::uint64_t page);

    /** Perform a write on `page` from `node`. */
    double write(std::uint32_t node, std::uint64_t page);

    DsmAccess access(std::uint32_t node, std::uint64_t page) const;
    std::uint32_t owner(std::uint64_t page) const;
    std::uint32_t copyHolders(std::uint64_t page) const;

    /** Check the single-writer / multiple-reader invariant. */
    bool coherent() const;

    const Counts &counts() const { return tally; }
    SimKernel &nodeKernel(std::uint32_t node) { return *kernels[node]; }
    std::uint32_t nodeCount() const
    {
        return static_cast<std::uint32_t>(kernels.size());
    }

  private:
    struct PageState
    {
        std::uint32_t owner = 0;
        std::vector<bool> hasCopy; // per node, read access
        bool writerValid = false;  // owner holds it read-write
    };

    double pageTransferUs() const;
    double controlMessageUs() const;

    MachineDesc desc;
    SrcRpcModel rpc;
    std::vector<std::unique_ptr<SimKernel>> kernels;
    std::vector<PageState> pageStates;
    Counts tally;
};

} // namespace aosd

#endif // AOSD_OS_VM_DSM_HH
