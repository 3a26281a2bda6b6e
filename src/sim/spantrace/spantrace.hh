/**
 * @file
 * Request-scoped span tracing.
 *
 * The profiler (sim/profile) aggregates cycles by *place* — every
 * syscall's kernel_entry cycles land in one tree node — which answers
 * "where does the mean go" but not "why was this particular request
 * slow". This layer keeps the per-invocation view: each primitive
 * invocation opens a span carrying a request id, nests child spans for
 * its phases (dispatch, kernel entry, handler execution, write-buffer
 * drain, TLB refill), and records per-span simulated-cycle duration
 * plus the CounterSet delta across the span. study/span_report turns a
 * session's requests into latency percentiles, top-K slowest-request
 * exemplars (full tree + counter deltas) and a tail-vs-median
 * attribution priced with the reconcile layer's constants.
 *
 * Tracing is off by default; a disabled hook costs one test of the
 * observer mask (sim/observers.hh) and a branch. The span bit is set
 * only while a request is open inside an armed session, so idle hooks
 * never take the slow path. The hooks are always compiled in;
 * EXPERIMENTS.md says where their cost is measured.
 *
 * Tracer state is per thread: each simulation slice (see
 * sim/parallel/parallel_runner.hh) traces into its own session, and
 * each cell's result carries its own session back in task-index
 * order, so `--jobs N` output is byte-identical.
 */

#ifndef AOSD_SIM_SPANTRACE_SPANTRACE_HH
#define AOSD_SIM_SPANTRACE_SPANTRACE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/counters/counters.hh"
#include "sim/json.hh"
#include "sim/observers.hh"
#include "sim/profile/histogram.hh"
#include "sim/ticks.hh"

namespace aosd
{

/** Cheapest possible "is a traced request open?" check for hot
 *  paths. True only between beginRequest() and endRequest() of an
 *  armed session. */
inline bool
spantraceEnabled()
{
    return observing(observeSpans);
}

/** One span of a request's tree. Unlike ProfNode, children are not
 *  merged by name: every push appends a new node, so the tree is the
 *  literal invocation sequence of one request. A node is 80 bytes; a
 *  408-byte counter block exists only for a span that counted. */
struct SpanNode
{
    std::string name;
    /** Inclusive simulated-cycle duration of the span. */
    Cycles cycles = 0;
    /** Counter events observed during the span; null when none was
     *  (always, for leaves). Shared by copies; read via counter(). */
    std::shared_ptr<const CounterSet> counters;
    std::vector<SpanNode> children;

    /** One counter's delta across the span (0 without a block). */
    std::uint64_t
    counter(HwCounter c) const
    {
        return counters ? counters->get(c) : 0;
    }

    /** {"name":..,"cycles":..[,"counters":{only-nonzero}]
     *   [,"spans":[children]]} — counters and children omitted when
     *  empty so exemplar trees stay compact. */
    Json toJson() const;
};

/** One completed request: its id and full span tree. The root span's
 *  name is the primitive, its cycles the request latency. */
struct SpanRequest
{
    std::uint64_t id = 0;
    SpanNode root;
};

/**
 * Everything one tracer collected: per-request-name latency
 * histograms (first-seen order), the retained request trees, and how
 * many completed requests were dropped once `capacity` trees were
 * retained (their latencies still land in the histograms).
 */
struct SpanSession
{
    std::vector<std::pair<std::string, Histogram>> hists;
    std::vector<SpanRequest> requests;
    std::uint64_t dropped = 0;

    const Histogram *find(const std::string &name) const;
};

/**
 * The calling thread's span tracer (per-thread, one per simulation
 * slice). enable(capacity) arms it; beginRequest()/endRequest()
 * bracket one primitive invocation; SpanScope/SpanGroup/spanLeaf()
 * nest phases inside the open request.
 */
class SpanTracer
{
  public:
    static SpanTracer &instance();

    /** Drop any previous session and arm the tracer. Up to `capacity`
     *  request trees are retained; later requests only feed the
     *  histograms and bump dropped. */
    void enable(std::size_t capacity);

    /** Disarm (an open request is abandoned unrecorded). The session
     *  remains readable via take(). */
    void disable();

    bool armed() const { return armed_; }

    /** Open a request span. No-op unless armed; must not be called
     *  with a request already open (the open request is closed at
     *  `now` first, keeping the session well formed). */
    void beginRequest(const char *name, std::uint64_t id, Cycles now);

    /** Close the request (and any spans left open inside it) at
     *  `now`, sample its latency histogram and retain its tree if
     *  under capacity. */
    void endRequest(Cycles now);

    /** Open a child span at `now`. Returns the node (null when no
     *  request is open). */
    SpanNode *push(const char *name, Cycles now);

    /** Close span `node` at `now` (closing any of its still-open
     *  children first). Ignored when `gen` is stale — the request
     *  that owned the node has already ended. */
    void pop(SpanNode *node, Cycles now, std::uint64_t gen);

    /** Open a child span whose duration will be the sum of its
     *  children (for analytic models that add component costs rather
     *  than advance a clock). */
    SpanNode *pushGroup(const char *name);

    /** Close the innermost group span. */
    void popGroup(SpanNode *node, std::uint64_t gen);

    /** Append a closed leaf span of `cycles` under the current
     *  span. */
    void leaf(const char *name, Cycles cycles);

    std::uint64_t generation() const { return gen_; }

    /** Move the session out (tracer left disarmed and empty). */
    SpanSession take();

  private:
    SpanTracer() = default;

    struct Open
    {
        SpanNode *node;
        Cycles start;
        CounterSet counters;
        bool group;
    };

    void closeTop(Cycles now);

    bool armed_ = false;
    std::uint64_t gen_ = 0; ///< bumped by enable/begin/endRequest
    std::size_t capacity_ = 0;
    std::uint64_t requestId_ = 0;
    SpanNode requestRoot_;
    std::vector<Open> stack_; ///< open spans, outermost first
    SpanSession session_;
};

/**
 * RAII phase span: opens a named child span for its lifetime, reading
 * the referenced simulated-cycle clock at entry and exit. `name` must
 * outlive the scope (string literals in practice); `clock` is the
 * owning component's cycle counter (e.g. SimKernel's).
 */
class SpanScope
{
  public:
    SpanScope(const char *name, const Cycles &clock)
    {
        if (!spantraceEnabled())
            return;
        SpanTracer &t = SpanTracer::instance();
        clock_ = &clock;
        gen_ = t.generation();
        node_ = t.push(name, clock);
    }

    ~SpanScope()
    {
        if (node_)
            SpanTracer::instance().pop(node_, *clock_, gen_);
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanNode *node_ = nullptr;
    const Cycles *clock_ = nullptr;
    std::uint64_t gen_ = 0;
};

/**
 * RAII group span: duration is the sum of the child spans recorded
 * inside it. Used by the analytic IPC models (rpc/lrpc/urpc), which
 * sum component costs instead of advancing a kernel clock.
 */
class SpanGroup
{
  public:
    explicit SpanGroup(const char *name)
    {
        if (!spantraceEnabled())
            return;
        SpanTracer &t = SpanTracer::instance();
        gen_ = t.generation();
        node_ = t.pushGroup(name);
    }

    ~SpanGroup()
    {
        if (node_)
            SpanTracer::instance().popGroup(node_, gen_);
    }

    SpanGroup(const SpanGroup &) = delete;
    SpanGroup &operator=(const SpanGroup &) = delete;

  private:
    SpanNode *node_ = nullptr;
    std::uint64_t gen_ = 0;
};

/** Record a closed leaf span of `cycles` under the current span. */
inline void
spanLeaf(const char *name, Cycles cycles)
{
    if (spantraceEnabled())
        SpanTracer::instance().leaf(name, cycles);
}

} // namespace aosd

#endif // AOSD_SIM_SPANTRACE_SPANTRACE_HH
