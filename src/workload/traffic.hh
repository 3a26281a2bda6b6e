/**
 * @file
 * Synthetic open/closed-loop traffic over SimKernel.
 *
 * The Table 7 replays answer "what does one benchmark cost"; this
 * driver answers the datacenter-style question the hardware/OS
 * co-design literature asks of the same primitives: how do latency
 * percentiles behave as offered load approaches and passes the
 * service capacity of a machine's kernel? Requests are weighted
 * mixes of the kernel's closed-form primitives (system calls, traps,
 * faults, thread switches, emulated test&sets, instruction
 * emulations, PTE changes), queued FIFO at a single simulated
 * server. The open loop sprays arrivals at a configured fraction of
 * capacity with uniform, bursty (Markov-modulated) or diurnal
 * (triangle-ramp) gap processes; the closed loop cycles a fixed
 * client population through think time. Latency and wait
 * distributions come from the exact log2 Histogram, and every cell's
 * kernel window is reconciled 100%-explained via
 * reconcileKernelWindow().
 *
 * Everything is integer-cycle or +,-,×,÷ double arithmetic on
 * deterministic Rng draws — no libm — so traffic.json is
 * byte-identical across --jobs values. Every event a request class
 * issues charges a per-machine constant (SimKernel's closed form is
 * per-event price × n, and a PTE change's edit charges no cycles), so
 * each class's service time is priced once per cell from
 * kernelWindowCosts(), a request only bumps its class's count, and the
 * cell's end charges the kernel once per event kind with the totals.
 * The counters and primitive cycles are linear in those totals, so the
 * kernel window reconciles to the same bytes.
 */

#ifndef AOSD_WORKLOAD_TRAFFIC_HH
#define AOSD_WORKLOAD_TRAFFIC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "arch/machines.hh"
#include "os/kernel/kernel.hh"
#include "sim/json.hh"
#include "sim/parallel/parallel_runner.hh"

namespace aosd
{

/** How request arrivals spread over virtual time (open loop). */
enum class TrafficArrival
{
    Uniform, ///< i.i.d. uniform gaps around the configured rate
    Bursty,  ///< two-state Markov-modulated gaps (burst / quiet)
    Diurnal, ///< rate ramps 0.5x -> 1.5x -> 0.5x across the run
};

/** Open loop (arrivals ignore completions) or closed loop (a fixed
 *  client population with think time between requests). */
enum class TrafficMode
{
    Open,
    Closed,
};

const char *trafficArrivalName(TrafficArrival a);
const char *trafficModeName(TrafficMode m);

struct TrafficConfig
{
    TrafficMode mode = TrafficMode::Open;
    TrafficArrival arrival = TrafficArrival::Uniform;
    /** Requests simulated per (machine × load level) cell. */
    std::uint64_t requestsPerLevel = 100000;
    /** Open loop: offered load as a fraction of the machine's mean
     *  service capacity (1.0 = arrivals exactly saturate the kernel).
     *  Closed loop: the client population size. */
    std::vector<double> levels = {0.3, 0.6, 0.9, 1.2};
    /** Closed loop: mean think time as a multiple of the machine's
     *  mean service time. */
    double thinkFactor = 5.0;
    std::uint64_t seed = 0x5eedf00d;
    /** Top-K slowest requests retained per cell, 0..
     *  trafficMaxExemplars (digested out at perfdb ingest, like span
     *  exemplars). */
    std::size_t exemplars = 5;
    /** Machines to sweep; empty selects the Table 1 machines. */
    std::vector<MachineId> machines;
};

/** Largest request count per cell a sweep may ask for (the open loop
 *  keeps the completion times still ahead of the latest arrival, at
 *  most one per request when the server never catches up). */
constexpr std::uint64_t trafficMaxRequests = 100'000'000;
/** Largest open-loop offered load, as a multiple of capacity. */
constexpr double trafficMaxOpenLoad = 100.0;
/** Largest closed-loop client population. */
constexpr std::uint64_t trafficMaxClients = 1'000'000;
/** Largest number of slowest-request exemplars kept per cell (each
 *  one is a JSON object in the document). */
constexpr std::size_t trafficMaxExemplars = 10'000;

/**
 * Why `cfg` is not a sweep a user may ask for, or "" when it is:
 * 1..trafficMaxRequests requests per cell; at least one level; open
 * loop levels finite, > 0 and <= trafficMaxOpenLoad; closed loop
 * levels whole client counts in 1..trafficMaxClients; a finite
 * thinkFactor >= 0; at most trafficMaxExemplars exemplars. The
 * message is one line naming the bad value.
 * buildTrafficDoc does not check: it rounds closed-loop levels to the
 * nearest population of at least one client.
 */
std::string trafficConfigError(const TrafficConfig &cfg);

/**
 * Run the whole sweep — every (machine × load level) cell fanned over
 * `runner` in fixed order — and build traffic.json v1:
 *
 *   {"schema_version":1,"kind":"traffic","config":{...},
 *    "total_requests":N,
 *    "machines":[{"machine":slug,"load_levels":[
 *      {"load":..,"requests":..,"offered_rps":..,
 *       "elapsed_seconds":..,"throughput_rps":..,
 *       "mean_service_cycles":..,"max_queue_depth":..,
 *       "latency_cycles":{"all":{hist},"per_class":{name:{hist}}},
 *       "wait_cycles":{hist},"kernel_window":{reconciliation},
 *       "slowest_requests":[{id,class,arrival_cycle,wait_cycles,
 *                            service_cycles,latency_cycles}]}]}]}
 */
Json buildTrafficDoc(const TrafficConfig &cfg, ParallelRunner &runner);

/**
 * Drive ~`total_events` kernel events through `kernel` as seeded
 * randomized homogeneous runs over every kernel event kind, one entry
 * point call per run, so each run is charged in closed form while no
 * per-event observer is watching. Each run draws its length
 * (Rng::between(1, 256)), then its kind (Rng::below(7), or below(6)
 * without PTE changes) in the order syscall, trap, other exception,
 * thread switch, emulated test&set, emulated instruction, PTE change.
 * `pte_space` (may be null to skip PTE-change runs) needs pages
 * mapped at 0x1000; `sample_each` reproduces a per-event sampler tick
 * for every event. Returns the number of events issued
 * (>= total_events). Shared by the closed-form-equivalence property
 * tests and BM_KernelWindowBatched.
 */
std::uint64_t replayEventMix(SimKernel &kernel, AddressSpace *pte_space,
                             std::uint64_t total_events,
                             std::uint64_t seed,
                             bool sample_each = false);

} // namespace aosd

#endif // AOSD_WORKLOAD_TRAFFIC_HH
