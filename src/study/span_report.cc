#include "study/span_report.hh"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "arch/machines.hh"
#include "os/ipc/lrpc.hh"
#include "os/ipc/rpc.hh"
#include "os/ipc/urpc.hh"
#include "os/kernel/kernel.hh"
#include "sim/counters/counters.hh"
#include "sim/counters/reconcile.hh"
#include "sim/random.hh"
#include "sim/spantrace/spantrace.hh"
#include "sim/table.hh"

namespace aosd
{

namespace
{

/** FNV-1a over a string: deterministic per-cell seed derivation. */
std::uint64_t
fnv1a(const char *s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (; *s; ++s) {
        h ^= static_cast<unsigned char>(*s);
        h *= 1099511628211ull;
    }
    return h;
}

/** Indices of `requests` sorted by (cycles, id) ascending — the
 *  deterministic percentile/tie-break order. */
std::vector<std::size_t>
sortedByLatency(const std::vector<SpanRequest> &requests)
{
    std::vector<std::size_t> order(requests.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  if (requests[a].root.cycles != requests[b].root.cycles)
                      return requests[a].root.cycles <
                             requests[b].root.cycles;
                  return requests[a].id < requests[b].id;
              });
    return order;
}

/** Index (into a sorted-ascending order) of the percentile sample,
 *  using the Histogram's rank convention. */
std::size_t
percentileIndex(double p, std::size_t n)
{
    auto rank = static_cast<std::uint64_t>(
        p / 100.0 * static_cast<double>(n) + 0.9999999999);
    rank = std::clamp<std::uint64_t>(rank, 1, n);
    return static_cast<std::size_t>(rank - 1);
}

Json
exemplarJson(const SpanRequest &req)
{
    Json out = Json::object();
    out.set("id", Json(req.id));
    out.set("cycles", Json(req.root.cycles));
    out.set("spans", req.root.toJson());
    return out;
}

/**
 * Price the counter-delta difference between the p99 exemplar and the
 * median request with the same constants reconcileKernelWindow uses,
 * term for term — so "why is p99 slow" bottoms out in the same priced
 * event classes as the kernel-window cross-check and aosd_bisect.
 */
Json
tailAttribution(const KernelWindowCosts &costs,
                const SpanRequest &median, const SpanRequest &p99)
{
    auto cnt = [](const SpanRequest &r, HwCounter c) {
        return static_cast<std::int64_t>(r.root.counter(c));
    };

    double explained = 0.0;
    Json terms = Json::object();
    auto term = [&](HwCounter c, std::int64_t delta, double penalty) {
        double cycles = static_cast<double>(delta) * penalty;
        explained += cycles;
        Json row = Json::object();
        row.set("delta_count", Json(delta));
        row.set("penalty_cycles", Json(penalty));
        row.set("cycles", Json(cycles));
        terms.set(counterName(c), std::move(row));
    };
    auto diff = [&](HwCounter c) { return cnt(p99, c) - cnt(median, c); };

    term(HwCounter::KernelSyscalls, diff(HwCounter::KernelSyscalls),
         static_cast<double>(costs.syscallCycles));
    term(HwCounter::KernelTraps, diff(HwCounter::KernelTraps),
         static_cast<double>(costs.trapCycles));
    term(HwCounter::ThreadSwitches, diff(HwCounter::ThreadSwitches),
         static_cast<double>(costs.switchCycles));
    term(HwCounter::PteChanges, diff(HwCounter::PteChanges),
         static_cast<double>(costs.pteChangeCycles));
    // EmulatedInstrs mixes two prices; EmulatedTasOps disambiguates
    // (reconcileKernelWindow does the identical split per window).
    std::int64_t emul =
        (cnt(p99, HwCounter::EmulatedInstrs) -
         cnt(p99, HwCounter::EmulatedTasOps)) -
        (cnt(median, HwCounter::EmulatedInstrs) -
         cnt(median, HwCounter::EmulatedTasOps));
    term(HwCounter::EmulatedInstrs, emul,
         static_cast<double>(costs.emulInstrCycles));
    term(HwCounter::EmulatedTasOps, diff(HwCounter::EmulatedTasOps),
         static_cast<double>(costs.emulTasCycles));
    term(HwCounter::TlbRefillCycles, diff(HwCounter::TlbRefillCycles),
         1.0);
    term(HwCounter::TlbPurgeCycles, diff(HwCounter::TlbPurgeCycles),
         1.0);
    term(HwCounter::CacheFlushCycles,
         diff(HwCounter::CacheFlushCycles), 1.0);

    std::int64_t gap =
        static_cast<std::int64_t>(p99.root.cycles) -
        static_cast<std::int64_t>(median.root.cycles);

    Json out = Json::object();
    out.set("median_request", Json(median.id));
    out.set("p99_request", Json(p99.id));
    out.set("median_cycles", Json(median.root.cycles));
    out.set("p99_cycles", Json(p99.root.cycles));
    out.set("gap_cycles", Json(gap));
    out.set("explained_cycles", Json(explained));
    out.set("explained_pct",
            Json(gap == 0
                     ? 100.0
                     : 100.0 * explained / static_cast<double>(gap)));
    out.set("terms", std::move(terms));
    return out;
}

/** One (machine, primitive) cell: trace the requests and analyze. */
Json
runSpanCell(const MachineDesc &machine, Primitive prim,
            const SpanOptions &opts)
{
    SimKernel kernel(machine);
    AddressSpace &app = kernel.createSpace("app");
    AddressSpace &peer = kernel.createSpace("peer");
    app.setWorkingSet(0x1000, 24);
    app.mapRange(0x1000, 24, 0x9000, {});
    peer.setWorkingSet(0x2000, 24);
    peer.mapRange(0x2000, 24, 0xa000, {});
    // The kernel pool the random touches draw from (mapped kernel
    // data, refilled through the slow kernel-miss path).
    kernel.kernelSpace().mapRange(0xc00, opts.poolPages, 0x800, {});
    kernel.contextSwitchTo(app);

    Rng rng(opts.seed ^ fnv1a(machineSlug(machine.id)) ^
            fnv1a(primitiveSlug(prim)));
    HwCounters::instance().enable();
    SpanTracer &tracer = SpanTracer::instance();
    tracer.enable(opts.requestsPerPair);

    std::vector<Vpn> scratch;
    scratch.reserve(opts.touchesMax);
    for (std::size_t i = 0; i < opts.requestsPerPair; ++i) {
        tracer.beginRequest(primitiveSlug(prim), i,
                            kernel.elapsedCycles());
        switch (prim) {
          case Primitive::NullSyscall:
            kernel.syscall();
            break;
          case Primitive::Trap:
            kernel.trap();
            break;
          case Primitive::PteChange:
            kernel.pteChange(kernel.currentSpace(),
                             0x1000 + rng.below(24), {});
            break;
          case Primitive::ContextSwitch:
            kernel.contextSwitchTo(i % 2 == 0 ? peer : app);
            break;
        }
        // Dispatch-adjacent kernel work: a random number of kernel-
        // pool touches. Requests that cold-miss more pages land in
        // the tail; the span's counter delta says exactly why.
        std::uint32_t touches = rng.below(opts.touchesMax + 1);
        if (touches) {
            scratch.clear();
            for (std::uint32_t t = 0; t < touches; ++t)
                scratch.push_back(0xc00 + rng.below(opts.poolPages));
            kernel.touchPages(scratch, true);
        }
        tracer.endRequest(kernel.elapsedCycles());
    }
    SpanSession session = tracer.take();
    HwCounters::instance().disable();

    Json cell = Json::object();
    cell.set("requests", Json(static_cast<std::uint64_t>(
                             opts.requestsPerPair)));
    cell.set("dropped", Json(session.dropped));
    const Histogram *hist = session.find(primitiveSlug(prim));
    cell.set("cycles", hist ? hist->toJson() : Histogram{}.toJson());

    Json exemplars = Json::array();
    if (!session.requests.empty()) {
        std::vector<std::size_t> order =
            sortedByLatency(session.requests);
        std::size_t n = order.size();
        // Top-K slowest: cycles descending, ties on ascending id (a
        // different order than `order` reversed, which would flip the
        // ids within a tie).
        std::vector<std::size_t> slowest(n);
        for (std::size_t i = 0; i < n; ++i)
            slowest[i] = i;
        std::sort(slowest.begin(), slowest.end(),
                  [&](std::size_t a, std::size_t b) {
                      const SpanRequest &ra = session.requests[a];
                      const SpanRequest &rb = session.requests[b];
                      if (ra.root.cycles != rb.root.cycles)
                          return ra.root.cycles > rb.root.cycles;
                      return ra.id < rb.id;
                  });
        for (std::size_t k = 0; k < std::min(opts.topK, n); ++k)
            exemplars.push(exemplarJson(session.requests[slowest[k]]));
        cell.set("exemplars", std::move(exemplars));

        const SpanRequest &median =
            session.requests[order[percentileIndex(50.0, n)]];
        const SpanRequest &p99 =
            session.requests[order[percentileIndex(99.0, n)]];
        cell.set("tail_attribution",
                 tailAttribution(kernelWindowCosts(machine), median,
                                 p99));
    } else {
        cell.set("exemplars", std::move(exemplars));
    }
    return cell;
}

/** Trace one null call of each analytic IPC model on `machine`. */
Json
runIpcCell(const MachineDesc &machine)
{
    SpanTracer &tracer = SpanTracer::instance();
    auto traced = [&](const char *name,
                      const std::function<double()> &call) {
        tracer.enable(1);
        tracer.beginRequest(name, 0, 0);
        double total_us = call();
        tracer.endRequest(machine.clock.microsToCycles(total_us));
        SpanSession session = tracer.take();
        Json out = Json::object();
        if (!session.requests.empty()) {
            const SpanRequest &req = session.requests.front();
            out.set("cycles", Json(req.root.cycles));
            out.set("spans", req.root.toJson());
        }
        return out;
    };

    Json cell = Json::object();
    cell.set("rpc", traced("rpc", [&] {
        return SrcRpcModel(machine).roundTrip(0, 0).totalUs();
    }));
    cell.set("lrpc", traced("lrpc", [&] {
        return LrpcModel(machine).nullCall().totalUs();
    }));
    cell.set("urpc", traced("urpc", [&] {
        return UrpcModel(machine).nullCall().totalUs();
    }));
    return cell;
}

/** Chrome-tracing "X" slices of one span tree, children laid end to
 *  end from the parent's start. */
void
emitSlices(const Json &span, double ts, int pid, int tid, Json &events)
{
    const Json *name = span.find("name");
    const Json *cycles = span.find("cycles");
    if (!name || !cycles)
        return;
    Json ev = Json::object();
    ev.set("name", *name);
    ev.set("ph", Json("X"));
    ev.set("ts", Json(ts));
    ev.set("dur", Json(cycles->asNumber()));
    ev.set("pid", Json(pid));
    ev.set("tid", Json(tid));
    events.push(std::move(ev));
    if (const Json *children = span.find("spans")) {
        double child_ts = ts;
        for (std::size_t i = 0; i < children->size(); ++i) {
            const Json &child = children->at(i);
            emitSlices(child, child_ts, pid, tid, events);
            if (const Json *c = child.find("cycles"))
                child_ts += c->asNumber();
        }
    }
}

void
emitMeta(const char *kind, const std::string &name_value, int pid,
         int tid, Json &events)
{
    Json ev = Json::object();
    ev.set("name", Json(kind));
    ev.set("ph", Json("M"));
    ev.set("pid", Json(pid));
    ev.set("tid", Json(tid));
    Json args = Json::object();
    args.set("name", Json(name_value));
    ev.set("args", std::move(args));
    events.push(std::move(ev));
}

} // namespace

Json
buildSpansDoc(ParallelRunner &runner, const SpanOptions &opts)
{
    std::vector<MachineDesc> machines;
    if (opts.machines.empty()) {
        machines = table1Machines();
    } else {
        machines.reserve(opts.machines.size());
        for (MachineId id : opts.machines)
            machines.push_back(makeMachine(id));
    }

    std::vector<std::function<Json()>> tasks;
    tasks.reserve(machines.size() * std::size(allPrimitives) +
                  machines.size());
    for (const MachineDesc &m : machines)
        for (Primitive p : allPrimitives)
            tasks.push_back(
                [&m, p, &opts] { return runSpanCell(m, p, opts); });
    for (const MachineDesc &m : machines)
        tasks.push_back([&m] { return runIpcCell(m); });
    std::vector<Json> cells = runner.map<Json>(tasks);

    Json machines_json = Json::object();
    std::size_t idx = 0;
    for (const MachineDesc &m : machines) {
        Json prims = Json::object();
        for (Primitive p : allPrimitives)
            prims.set(primitiveSlug(p), std::move(cells[idx++]));
        machines_json.set(machineSlug(m.id), std::move(prims));
    }
    Json ipc_json = Json::object();
    for (const MachineDesc &m : machines)
        ipc_json.set(machineSlug(m.id), std::move(cells[idx++]));

    Json doc = Json::object();
    doc.set("schema_version", Json(spansSchemaVersion));
    doc.set("generator", Json("aosd_spans"));
    doc.set("requests_per_pair", Json(static_cast<std::uint64_t>(
                                     opts.requestsPerPair)));
    doc.set("top_k",
            Json(static_cast<std::uint64_t>(opts.topK)));
    doc.set("machines", std::move(machines_json));
    doc.set("ipc", std::move(ipc_json));
    return doc;
}

std::string
spansPerfettoJson(const Json &spansDoc)
{
    Json events = Json::array();
    const Json *machines = spansDoc.find("machines");
    int pid = 0;
    if (machines && machines->isObject()) {
        for (const auto &[mslug, prims] : machines->items()) {
            ++pid;
            emitMeta("process_name", mslug, pid, 0, events);
            int tid = 0;
            for (const auto &[pslug, cell] : prims.items()) {
                ++tid;
                emitMeta("thread_name", pslug, pid, tid, events);
                const Json *exemplars = cell.find("exemplars");
                if (!exemplars)
                    continue;
                double ts = 0;
                for (std::size_t i = 0; i < exemplars->size(); ++i) {
                    const Json &ex = exemplars->at(i);
                    const Json *spans = ex.find("spans");
                    if (!spans)
                        continue;
                    emitSlices(*spans, ts, pid, tid, events);
                    // Counter tracks: the exemplar's nonzero counter
                    // deltas, sampled at its start.
                    if (const Json *ctrs = spans->find("counters")) {
                        Json cev = Json::object();
                        cev.set("name", Json(mslug + "." + pslug +
                                             ".counters"));
                        cev.set("ph", Json("C"));
                        cev.set("ts", Json(ts));
                        cev.set("pid", Json(pid));
                        cev.set("args", *ctrs);
                        events.push(std::move(cev));
                    }
                    if (const Json *c = spans->find("cycles"))
                        ts += c->asNumber() * 1.25; // visual gap
                }
            }
        }
    }
    const Json *ipc = spansDoc.find("ipc");
    if (ipc && ipc->isObject()) {
        for (const auto &[mslug, cell] : ipc->items()) {
            ++pid;
            emitMeta("process_name", "ipc." + mslug, pid, 0, events);
            int tid = 0;
            for (const auto &[model, entry] : cell.items()) {
                ++tid;
                emitMeta("thread_name", model, pid, tid, events);
                if (const Json *spans = entry.find("spans"))
                    emitSlices(*spans, 0, pid, tid, events);
            }
        }
    }
    Json doc = Json::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", Json("ns"));
    return doc.dump(1);
}

std::string
spansTextSummary(const Json &spansDoc)
{
    TextTable t;
    t.header({"machine", "primitive", "p50", "p99", "p999", "gap",
              "explained"});
    const Json *machines = spansDoc.find("machines");
    if (machines && machines->isObject()) {
        for (const auto &[mslug, prims] : machines->items()) {
            for (const auto &[pslug, cell] : prims.items()) {
                const Json *hist = cell.find("cycles");
                const Json *attr = cell.find("tail_attribution");
                if (!hist)
                    continue;
                t.row({mslug, pslug,
                       TextTable::num(hist->at("p50").asNumber(), 0),
                       TextTable::num(hist->at("p99").asNumber(), 0),
                       TextTable::num(hist->at("p999").asNumber(), 0),
                       attr ? TextTable::num(
                                  attr->at("gap_cycles").asNumber(), 0)
                            : "-",
                       attr ? TextTable::num(
                                  attr->at("explained_pct").asNumber(),
                                  1) +
                                  "%"
                            : "-"});
            }
        }
    }
    std::string out = "spans: request-latency percentiles "
                      "(simulated cycles) and p99-vs-median "
                      "attribution\n\n";
    out += t.render();
    const Json *ipc = spansDoc.find("ipc");
    if (ipc && ipc->isObject()) {
        TextTable it;
        it.header({"machine", "model", "cycles"});
        for (const auto &[mslug, cell] : ipc->items())
            for (const auto &[model, entry] : cell.items()) {
                const Json *cycles = entry.find("cycles");
                it.row({mslug, model,
                        cycles ? TextTable::num(cycles->asNumber(), 0)
                               : "-"});
            }
        out += "\nipc null-call span totals\n";
        out += it.render();
    }
    return out;
}

} // namespace aosd
