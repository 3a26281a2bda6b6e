#include "workload/traffic.hh"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <deque>
#include <functional>
#include <numeric>
#include <span>

#include "sim/counters/counters.hh"
#include "sim/profile/histogram.hh"
#include "sim/random.hh"

namespace aosd
{

namespace
{

/** Pages the traffic space keeps mapped for the PTE-change mix. */
constexpr Vpn trafficPteBase = 0x1000;
constexpr std::uint64_t trafficPtePages = 64;

/**
 * A request class: a weighted mix of the kernel primitives whose
 * per-event prices reconcileKernelWindow() knows exactly (no
 * contextSwitchTo, no page touches), so classServiceCycles() is its
 * exact service time and every cell's kernel window explains 100.0%
 * of its primitive cycles — the driver's built-in honesty check.
 */
struct RequestClass
{
    const char *name;
    std::uint32_t weight;
    std::uint32_t syscalls;
    std::uint32_t traps;
    std::uint32_t exceptions;
    std::uint32_t threadSwitches;
    std::uint32_t tasOps;
    std::uint32_t emulInstrs;
    std::uint32_t pteChanges;
};

/** The request mix, loosely the §4.1 application profiles: syscall-
 *  dominated clients, a faulting VM path, a lock-handoff path (the
 *  parthenon test&set story) and a scheduler tick. Weights sum 100. */
constexpr RequestClass requestClasses[] = {
    {"null_syscall", 40, 1, 0, 0, 0, 0, 0, 0},
    {"read_cached", 25, 2, 1, 0, 0, 0, 12, 0},
    {"write_update", 15, 2, 1, 0, 0, 0, 6, 2},
    {"page_fault", 10, 0, 1, 2, 0, 0, 0, 1},
    {"lock_handoff", 6, 1, 0, 0, 2, 4, 0, 0},
    {"scheduler_tick", 4, 0, 0, 1, 1, 0, 25, 0},
};

constexpr std::size_t numRequestClasses = std::size(requestClasses);

std::uint32_t
totalClassWeight()
{
    std::uint32_t w = 0;
    for (const RequestClass &c : requestClasses)
        w += c.weight;
    return w;
}

/** The class's service demand priced with the machine's own kernel-
 *  window constants (exceptions go through the trap machinery). */
Cycles
classServiceCycles(const RequestClass &c, const KernelWindowCosts &kc)
{
    return c.syscalls * kc.syscallCycles +
           (c.traps + c.exceptions) * kc.trapCycles +
           c.threadSwitches * kc.switchCycles +
           c.tasOps * kc.emulTasCycles +
           c.emulInstrs * kc.emulInstrCycles +
           c.pteChanges * kc.pteChangeCycles;
}

/** Weighted mean service demand across the class mix. */
double
meanServiceCycles(const KernelWindowCosts &kc)
{
    double num = 0.0;
    double den = 0.0;
    for (const RequestClass &c : requestClasses) {
        num += static_cast<double>(c.weight) *
               static_cast<double>(classServiceCycles(c, kc));
        den += static_cast<double>(c.weight);
    }
    return num / den;
}

/** Uniform integer draw in [0, bound] cycles (mean bound/2). All the
 *  arrival processes compose this primitive, so no libm enters the
 *  gap arithmetic. */
std::uint64_t
drawUpTo(Rng &rng, double bound)
{
    if (bound <= 0.0)
        return 0;
    return rng.between(0, static_cast<std::uint64_t>(bound + 0.5));
}

std::size_t
drawClass(Rng &rng, std::uint32_t total_weight)
{
    std::uint64_t pick = rng.below(total_weight);
    for (std::size_t i = 0; i < numRequestClasses; ++i) {
        if (pick < requestClasses[i].weight)
            return i;
        pick -= requestClasses[i].weight;
    }
    return numRequestClasses - 1;
}

/** Two-state Markov-modulated gap source: bursts draw short gaps
 *  (mean g/4), quiet spells long ones (mean 7g/4); a 1/16 flip
 *  probability gives 50/50 stationary occupancy, so the overall mean
 *  gap stays g while arrivals clump. */
struct BurstyState
{
    bool inBurst = true;

    std::uint64_t
    draw(Rng &rng, double gap_mean)
    {
        if (rng.chance(1.0 / 16.0))
            inBurst = !inBurst;
        return inBurst ? drawUpTo(rng, gap_mean / 2.0)
                       : drawUpTo(rng, 7.0 * gap_mean / 2.0);
    }
};

/** Triangle diurnal rate factor across the run: 0.5x at the edges,
 *  1.5x at the midpoint. Position x in [0, 1]. */
double
diurnalFactor(double x)
{
    return x <= 0.5 ? 0.5 + 2.0 * x : 2.5 - 2.0 * x;
}

/** Charge a cell's requests, `issued[i]` of class i, with one kernel
 *  entry point call per event kind over the cell's totals. The PTE
 *  changes sweep the mapped range in passes of at most
 *  trafficPtePages pages, so no vpn list grows with the cell. */
void
chargeRequests(SimKernel &kernel, AddressSpace &space,
               const std::array<std::uint64_t, numRequestClasses> &issued)
{
    auto total = [&](std::uint32_t RequestClass::*events) {
        std::uint64_t t = 0;
        for (std::size_t i = 0; i < numRequestClasses; ++i)
            t += issued[i] * (requestClasses[i].*events);
        return t;
    };
    kernel.syscall(total(&RequestClass::syscalls));
    kernel.trap(total(&RequestClass::traps));
    kernel.otherException(total(&RequestClass::exceptions));
    kernel.threadSwitch(total(&RequestClass::threadSwitches));
    kernel.emulateTestAndSet(total(&RequestClass::tasOps));
    kernel.emulateSingleInstructions(total(&RequestClass::emulInstrs));
    std::array<Vpn, trafficPtePages> ring;
    std::iota(ring.begin(), ring.end(), trafficPteBase);
    for (std::uint64_t left = total(&RequestClass::pteChanges); left;) {
        const std::uint64_t pass = std::min(left, trafficPtePages);
        kernel.pteChange(space, std::span(ring).first(pass), {});
        left -= pass;
    }
}

/** One retained slowest-request exemplar. */
struct SlowRequest
{
    std::uint64_t id = 0;
    const char *cls = "";
    Cycles arrival = 0;
    Cycles wait = 0;
    Cycles service = 0;

    Cycles latency() const { return wait + service; }
};

/** Exemplar order: latency desc, then id asc. Ids are unique, so
 *  this is a strict total order and the top K under it are one set
 *  in one order, whatever the insertion order. */
bool
slowerRequest(const SlowRequest &a, const SlowRequest &b)
{
    if (a.latency() != b.latency())
        return a.latency() > b.latency();
    return a.id < b.id;
}

/** Keep the top-K slowest requests as a heap under slowerRequest,
 *  whose front is the fastest one kept: a request that is not slower
 *  than it is rejected in O(1), any other replaces it in O(log K).
 *  sort_heap() under slowerRequest gives the final slowest-first
 *  order once the cell ends. */
void
keepSlowest(std::vector<SlowRequest> &top, std::size_t k,
            const SlowRequest &r)
{
    if (top.size() < k) {
        top.push_back(r);
        std::push_heap(top.begin(), top.end(), slowerRequest);
    } else if (k != 0 && slowerRequest(r, top.front())) {
        std::pop_heap(top.begin(), top.end(), slowerRequest);
        top.back() = r;
        std::push_heap(top.begin(), top.end(), slowerRequest);
    }
}

/** Stable per-cell seed: mixes machine identity and level index into
 *  the sweep seed without touching std::hash (implementation-defined
 *  ordering would break cross-build determinism). */
std::uint64_t
cellSeed(std::uint64_t sweep_seed, MachineId m, std::size_t level_idx)
{
    std::uint64_t s = sweep_seed;
    s ^= (static_cast<std::uint64_t>(m) + 1) * 0x9e3779b97f4a7c15ULL;
    s ^= (static_cast<std::uint64_t>(level_idx) + 1) *
         0xc2b2ae3d27d4eb4fULL;
    return s;
}

Json
slowRequestsJson(const std::vector<SlowRequest> &top)
{
    Json arr = Json::array();
    for (const SlowRequest &r : top) {
        Json e = Json::object();
        e.set("id", Json(r.id));
        e.set("class", Json(r.cls));
        e.set("arrival_cycle", Json(r.arrival));
        e.set("wait_cycles", Json(r.wait));
        e.set("service_cycles", Json(r.service));
        e.set("latency_cycles", Json(r.latency()));
        arr.push(e);
    }
    return arr;
}

/** Simulate one (machine × load level) cell and emit its JSON. */
Json
runCell(const TrafficConfig &cfg, MachineId mid, std::size_t level_idx)
{
    const double level = cfg.levels[level_idx];
    const MachineDesc desc = makeMachine(mid);
    const KernelWindowCosts kc = kernelWindowCosts(desc);
    const double mean_service = meanServiceCycles(kc);
    const std::uint64_t n = cfg.requestsPerLevel;
    const std::uint32_t total_weight = totalClassWeight();
    std::array<Cycles, numRequestClasses> class_service;
    for (std::size_t i = 0; i < numRequestClasses; ++i)
        class_service[i] = classServiceCycles(requestClasses[i], kc);

    Rng rng(cellSeed(cfg.seed, mid, level_idx));
    BurstyState bursty;

    Histogram latency_all;
    Histogram wait_all;
    std::array<Histogram, numRequestClasses> latency_class;
    std::vector<SlowRequest> slowest;
    std::array<std::uint64_t, numRequestClasses> issued{};

    Cycles server_free = 0;
    Cycles last_finish = 0;
    std::uint64_t max_depth = 0;

    const bool open = cfg.mode == TrafficMode::Open;
    // Open loop: offered rate = level × capacity.
    const double gap_mean = level > 0.0 ? mean_service / level : 0.0;
    // Closed loop: `level` rounds to the client population.
    const std::uint64_t clients =
        std::max<std::uint64_t>(1,
            static_cast<std::uint64_t>(level + 0.5));
    const double think_bound = 2.0 * cfg.thinkFactor * mean_service;

    Cycles next_arrival = 0;
    /** Open loop: completions still ahead of the latest arrival. */
    std::deque<Cycles> open_finishes;
    std::vector<Cycles> next_submit;
    if (!open) {
        next_submit.resize(clients);
        for (std::uint64_t c = 0; c < clients; ++c)
            next_submit[c] = drawUpTo(rng, think_bound);
    }

    for (std::uint64_t j = 0; j < n; ++j) {
        Cycles arrival;
        std::uint64_t client = 0;
        std::uint64_t depth;
        if (open) {
            arrival = next_arrival;
            double bound;
            switch (cfg.arrival) {
              case TrafficArrival::Uniform:
                bound = 2.0 * gap_mean;
                next_arrival += drawUpTo(rng, bound);
                break;
              case TrafficArrival::Bursty:
                next_arrival += bursty.draw(rng, gap_mean);
                break;
              case TrafficArrival::Diurnal: {
                double x = n > 1
                    ? static_cast<double>(j) /
                      static_cast<double>(n - 1)
                    : 0.5;
                bound = 2.0 * gap_mean / diurnalFactor(x);
                next_arrival += drawUpTo(rng, bound);
                break;
              }
            }
            while (!open_finishes.empty() &&
                   open_finishes.front() <= arrival)
                open_finishes.pop_front();
            depth = open_finishes.size() + 1;
        } else {
            client = 0;
            for (std::uint64_t c = 1; c < clients; ++c) {
                if (next_submit[c] < next_submit[client])
                    client = c;
            }
            arrival = next_submit[client];
            // Queue depth when the server picks this request up:
            // every client already waiting to submit by then. At the
            // arrival instant itself only ties with the argmin would
            // count, which would read ~1 even fully saturated.
            const Cycles start_at = std::max(arrival, server_free);
            depth = 0;
            for (std::uint64_t c = 0; c < clients; ++c) {
                if (next_submit[c] <= start_at)
                    ++depth;
            }
        }

        const std::size_t cls_idx = drawClass(rng, total_weight);
        const RequestClass &cls = requestClasses[cls_idx];

        const Cycles start = std::max(arrival, server_free);
        const Cycles service = class_service[cls_idx];
        ++issued[cls_idx];
        const Cycles finish = start + service;
        const Cycles wait = start - arrival;

        server_free = finish;
        last_finish = std::max(last_finish, finish);
        max_depth = std::max(max_depth, depth);
        latency_all.sample(wait + service);
        latency_class[cls_idx].sample(wait + service);
        wait_all.sample(wait);
        keepSlowest(slowest, cfg.exemplars,
                    {j, cls.name, arrival, wait, service});

        if (open)
            open_finishes.push_back(finish);
        else
            next_submit[client] = finish + drawUpTo(rng, think_bound);
    }

    std::sort_heap(slowest.begin(), slowest.end(), slowerRequest);

    SimKernel kernel(desc);
    AddressSpace &space = kernel.createSpace("traffic");
    space.mapRange(trafficPteBase, trafficPtePages, 0x50000, {});

    // Own counter session per cell (the os_model idiom): enable()
    // resets this worker thread's counter file; restore on exit.
    bool ctrs_were_on = HwCounters::instance().enabled();
    HwCounters::instance().enable();
    CounterSet ctr_base = HwCounters::instance().snapshot();

    chargeRequests(kernel, space, issued);
    CounterSet events =
        HwCounters::instance().snapshot().delta(ctr_base);
    Reconciliation recon = reconcileKernelWindow(
        kc, events, kernel.primitiveCycles());
    HwCounters::instance().disable();
    HwCounters::instance().reset();
    if (ctrs_were_on)
        HwCounters::instance().resume();

    const double clock_hz = desc.clock.mhz() * 1e6;
    const double elapsed_s =
        desc.clock.cyclesToMicros(last_finish) / 1e6;
    const double offered_rps = open
        ? (mean_service > 0.0 ? level * clock_hz / mean_service : 0.0)
        : static_cast<double>(clients) * clock_hz /
              (cfg.thinkFactor * mean_service + mean_service);

    Json cell = Json::object();
    cell.set("load", Json(level));
    cell.set("requests", Json(n));
    cell.set("offered_rps", Json(offered_rps));
    cell.set("elapsed_seconds", Json(elapsed_s));
    cell.set("throughput_rps",
             Json(elapsed_s > 0.0 ? static_cast<double>(n) / elapsed_s
                                  : 0.0));
    cell.set("mean_service_cycles", Json(mean_service));
    cell.set("max_queue_depth", Json(max_depth));
    Json lat = Json::object();
    lat.set("all", latency_all.toJson());
    Json per_class = Json::object();
    for (std::size_t i = 0; i < numRequestClasses; ++i)
        per_class.set(requestClasses[i].name,
                      latency_class[i].toJson());
    lat.set("per_class", per_class);
    cell.set("latency_cycles", lat);
    cell.set("wait_cycles", wait_all.toJson());
    cell.set("kernel_window", recon.toJson());
    cell.set("slowest_requests", slowRequestsJson(slowest));
    return cell;
}

} // namespace

const char *
trafficArrivalName(TrafficArrival a)
{
    switch (a) {
      case TrafficArrival::Uniform:
        return "uniform";
      case TrafficArrival::Bursty:
        return "bursty";
      case TrafficArrival::Diurnal:
        return "diurnal";
    }
    return "?";
}

const char *
trafficModeName(TrafficMode m)
{
    return m == TrafficMode::Open ? "open" : "closed";
}

std::string
trafficConfigError(const TrafficConfig &cfg)
{
    auto num = [](double v) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%g", v);
        return std::string(buf);
    };
    if (cfg.requestsPerLevel == 0 ||
        cfg.requestsPerLevel > trafficMaxRequests)
        return "requests per level must be 1.." +
               std::to_string(trafficMaxRequests) + ", got " +
               std::to_string(cfg.requestsPerLevel);
    if (cfg.levels.empty())
        return "no load levels";
    for (double l : cfg.levels) {
        if (cfg.mode == TrafficMode::Open &&
            !(std::isfinite(l) && l > 0.0 && l <= trafficMaxOpenLoad))
            return "open-loop load levels must be > 0 and <= " +
                   num(trafficMaxOpenLoad) + " (x capacity), got " +
                   num(l);
        if (cfg.mode == TrafficMode::Closed &&
            !(std::isfinite(l) && l >= 1.0 &&
              l <= static_cast<double>(trafficMaxClients) &&
              std::floor(l) == l))
            return "closed-loop load levels must be whole client "
                   "counts 1.." +
                   std::to_string(trafficMaxClients) + ", got " + num(l);
    }
    if (!(std::isfinite(cfg.thinkFactor) && cfg.thinkFactor >= 0.0))
        return "think factor must be finite and >= 0, got " +
               num(cfg.thinkFactor);
    if (cfg.exemplars > trafficMaxExemplars)
        return "exemplars wants 0.." +
               std::to_string(trafficMaxExemplars) + " per cell, got " +
               std::to_string(cfg.exemplars);
    return "";
}

Json
buildTrafficDoc(const TrafficConfig &cfg, ParallelRunner &runner)
{
    std::vector<MachineId> machines = cfg.machines;
    if (machines.empty()) {
        for (const MachineDesc &d : table1Machines())
            machines.push_back(d.id);
    }

    std::vector<std::function<Json()>> tasks;
    tasks.reserve(machines.size() * cfg.levels.size());
    for (MachineId m : machines) {
        for (std::size_t li = 0; li < cfg.levels.size(); ++li)
            tasks.push_back([&cfg, m, li] { return runCell(cfg, m, li); });
    }
    std::vector<Json> cells = runner.map<Json>(tasks);

    Json config = Json::object();
    config.set("mode", Json(trafficModeName(cfg.mode)));
    config.set("arrival", Json(trafficArrivalName(cfg.arrival)));
    config.set("requests_per_level", Json(cfg.requestsPerLevel));
    Json levels = Json::array();
    for (double l : cfg.levels)
        levels.push(Json(l));
    config.set("levels", levels);
    config.set("think_factor", Json(cfg.thinkFactor));
    config.set("seed", Json(cfg.seed));
    config.set("exemplars",
               Json(static_cast<std::uint64_t>(cfg.exemplars)));
    Json mach_names = Json::array();
    for (MachineId m : machines)
        mach_names.push(Json(machineSlug(m)));
    config.set("machines", mach_names);

    Json doc = Json::object();
    doc.set("schema_version", Json(std::uint64_t{1}));
    doc.set("kind", Json("traffic"));
    doc.set("config", config);
    doc.set("total_requests",
            Json(cfg.requestsPerLevel *
                 static_cast<std::uint64_t>(tasks.size())));

    Json mach_arr = Json::array();
    std::size_t idx = 0;
    for (MachineId m : machines) {
        Json entry = Json::object();
        entry.set("machine", Json(machineSlug(m)));
        Json load_levels = Json::array();
        for (std::size_t li = 0; li < cfg.levels.size(); ++li)
            load_levels.push(cells[idx++]);
        entry.set("load_levels", load_levels);
        mach_arr.push(entry);
    }
    doc.set("machines", mach_arr);
    return doc;
}

std::uint64_t
replayEventMix(SimKernel &kernel, AddressSpace *pte_space,
               std::uint64_t total_events, std::uint64_t seed,
               bool sample_each)
{
    Rng rng(seed);
    std::uint64_t issued = 0;
    std::vector<Vpn> vpns;
    std::uint64_t cursor = 0;
    const std::uint64_t kinds = pte_space ? 7 : 6;
    while (issued < total_events) {
        std::uint64_t n = rng.between(1, 256);
        switch (rng.below(kinds)) {
          case 0:
            kernel.syscall(n, sample_each);
            break;
          case 1:
            kernel.trap(n, sample_each);
            break;
          case 2:
            kernel.otherException(n, sample_each);
            break;
          case 3:
            kernel.threadSwitch(n, sample_each);
            break;
          case 4:
            kernel.emulateTestAndSet(n, sample_each);
            break;
          case 5:
            kernel.emulateSingleInstructions(n, sample_each);
            break;
          default: {
            vpns.clear();
            for (std::uint64_t i = 0; i < n; ++i)
                vpns.push_back(trafficPteBase +
                               cursor++ % trafficPtePages);
            PageProt prot;
            prot.writable = (cursor & 1) != 0;
            kernel.pteChange(*pte_space, vpns, prot);
            break;
          }
        }
        issued += n;
    }
    return issued;
}

} // namespace aosd
