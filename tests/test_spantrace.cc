/**
 * @file
 * Request-scoped span tracing: hook gating (off by default, on only
 * inside an armed request), tree building and capacity-drop
 * semantics, the observer pause, spans.json determinism across
 * --jobs, exemplar ordering, the tail-attribution >= 80% acceptance
 * gate on every Table 1 machine x primitive pair, and the spans
 * document's round trip through the perf database.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arch/machines.hh"
#include "sim/counters/counters.hh"
#include "sim/parallel/parallel_runner.hh"
#include "sim/perfdb/perfdb.hh"
#include "sim/spantrace/spantrace.hh"
#include "study/span_report.hh"
#include "study/trend_report.hh"

using namespace aosd;

namespace
{

/** Restore global tracer/counter state around each test. */
class SpantraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        SpanTracer::instance().take();
        HwCounters::instance().disable();
        HwCounters::instance().reset();
    }

    void
    TearDown() override
    {
        SpanTracer::instance().take();
        HwCounters::instance().disable();
        HwCounters::instance().reset();
    }
};

TEST_F(SpantraceTest, OffByDefaultAndOutsideRequests)
{
    // Untouched tracer: hooks are dormant.
    EXPECT_FALSE(spantraceEnabled());
    spanLeaf("noise", 42);
    Cycles clock = 0;
    { SpanScope s("noise", clock); }
    SpanSession session = SpanTracer::instance().take();
    EXPECT_TRUE(session.hists.empty());
    EXPECT_TRUE(session.requests.empty());

    // Armed but no request open: still dormant (the arming alone must
    // not tax simulator code that runs outside any request).
    SpanTracer::instance().enable(4);
    EXPECT_TRUE(SpanTracer::instance().armed());
    EXPECT_FALSE(spantraceEnabled());
    spanLeaf("noise", 42);
    session = SpanTracer::instance().take();
    EXPECT_TRUE(session.requests.empty());
}

TEST_F(SpantraceTest, BuildsTheLiteralInvocationTree)
{
    SpanTracer &t = SpanTracer::instance();
    t.enable(4);
    t.beginRequest("req", 7, 100);
    EXPECT_TRUE(spantraceEnabled());
    {
        Cycles clock = 100;
        SpanScope outer("outer", clock);
        spanLeaf("leaf_a", 10);
        spanLeaf("leaf_a", 5); // same name appends, never merges
        clock = 160;
    }
    spanLeaf("leaf_b", 3);
    t.endRequest(250);
    EXPECT_FALSE(spantraceEnabled());

    SpanSession session = t.take();
    ASSERT_EQ(session.requests.size(), 1u);
    const SpanRequest &req = session.requests.front();
    EXPECT_EQ(req.id, 7u);
    EXPECT_EQ(req.root.name, "req");
    EXPECT_EQ(req.root.cycles, 150u);
    ASSERT_EQ(req.root.children.size(), 2u);
    const SpanNode &outer = req.root.children.front();
    EXPECT_EQ(outer.name, "outer");
    EXPECT_EQ(outer.cycles, 60u);
    ASSERT_EQ(outer.children.size(), 2u);
    EXPECT_EQ(outer.children[0].cycles, 10u);
    EXPECT_EQ(outer.children[1].cycles, 5u);
    EXPECT_EQ(req.root.children[1].name, "leaf_b");

    const Histogram *hist = session.find("req");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->count(), 1u);
    EXPECT_EQ(hist->max(), 150u);
}

TEST_F(SpantraceTest, GroupSpanSumsItsChildren)
{
    SpanTracer &t = SpanTracer::instance();
    t.enable(1);
    t.beginRequest("req", 0, 0);
    {
        SpanGroup g("model");
        spanLeaf("a", 30);
        spanLeaf("b", 12);
    }
    t.endRequest(100);

    SpanSession session = t.take();
    ASSERT_EQ(session.requests.size(), 1u);
    const SpanNode &group = session.requests[0].root.children.at(0);
    EXPECT_EQ(group.name, "model");
    EXPECT_EQ(group.cycles, 42u);
}

TEST_F(SpantraceTest, CapacityKeepsHistogramsAndCountsDrops)
{
    SpanTracer &t = SpanTracer::instance();
    t.enable(2);
    for (std::uint64_t i = 0; i < 5; ++i) {
        t.beginRequest("req", i, i * 100);
        t.endRequest(i * 100 + 10 + i);
    }
    SpanSession session = t.take();
    EXPECT_EQ(session.requests.size(), 2u);
    EXPECT_EQ(session.dropped, 3u);
    const Histogram *hist = session.find("req");
    ASSERT_NE(hist, nullptr);
    // Dropped requests still feed the latency histogram.
    EXPECT_EQ(hist->count(), 5u);
    EXPECT_EQ(hist->min(), 10u);
    EXPECT_EQ(hist->max(), 14u);
}

TEST_F(SpantraceTest, CounterDeltaLandsOnTheRootSpan)
{
    HwCounters::instance().enable();
    SpanTracer &t = SpanTracer::instance();
    t.enable(1);
    countEvent(HwCounter::TlbMisses, 100); // pre-request noise
    t.beginRequest("req", 0, 0);
    countEvent(HwCounter::TlbMisses, 3);
    t.endRequest(50);

    SpanSession session = t.take();
    ASSERT_EQ(session.requests.size(), 1u);
    EXPECT_EQ(session.requests[0].root.counter(HwCounter::TlbMisses),
              3u);
}

TEST_F(SpantraceTest, NodeIsCompact)
{
    EXPECT_LE(sizeof(SpanNode), 80u);
}

TEST_F(SpantraceTest, OnlyASpanThatCountedHoldsACounterBlock)
{
    HwCounters::instance().enable();
    SpanTracer &t = SpanTracer::instance();
    t.enable(1);
    t.beginRequest("req", 0, 0);
    Cycles clock = 0;
    {
        SpanScope counted("counted", clock);
        countEvent(HwCounter::TlbMisses, 3);
        spanLeaf("leaf", 10);
        clock = 20;
    }
    {
        SpanScope quiet("quiet", clock);
        clock = 30;
    }
    t.endRequest(40);

    SpanSession session = t.take();
    ASSERT_EQ(session.requests.size(), 1u);
    const SpanNode &root = session.requests[0].root;
    ASSERT_EQ(root.children.size(), 2u);
    const SpanNode &counted = root.children[0];
    ASSERT_NE(counted.counters, nullptr);
    EXPECT_EQ(counted.counter(HwCounter::TlbMisses), 3u);
    EXPECT_EQ(counted.counter(HwCounter::TlbHits), 0u);
    // Leaves never count; a scope with no event needs no block either.
    ASSERT_EQ(counted.children.size(), 1u);
    EXPECT_EQ(counted.children[0].counters, nullptr);
    EXPECT_EQ(counted.children[0].counter(HwCounter::TlbMisses), 0u);
    EXPECT_EQ(root.children[1].counters, nullptr);
    EXPECT_EQ(root.children[1].toJson().find("counters"), nullptr);
    EXPECT_EQ(counted.toJson().at("counters").dump(),
              "{\"tlb_misses\":3}");
}

TEST_F(SpantraceTest, PauseSuppressesNestedHooks)
{
    SpanTracer &t = SpanTracer::instance();
    t.enable(1);
    t.beginRequest("req", 0, 0);
    spanLeaf("kept", 1);
    {
        ObserverPause pause;
        EXPECT_FALSE(spantraceEnabled());
        spanLeaf("suppressed", 99);
    }
    EXPECT_TRUE(spantraceEnabled());
    t.endRequest(10);

    SpanSession session = t.take();
    ASSERT_EQ(session.requests.size(), 1u);
    ASSERT_EQ(session.requests[0].root.children.size(), 1u);
    EXPECT_EQ(session.requests[0].root.children[0].name, "kept");
}

/** Small study configuration so the doc tests stay fast. */
SpanOptions
smallOptions()
{
    SpanOptions opts;
    opts.requestsPerPair = 200;
    return opts;
}

TEST_F(SpantraceTest, MachinesOptionSubsetsTheGrid)
{
    // --machines SPARC,R3000: only the named machines appear, in
    // the requested order, with the ipc section filtered the same
    // way — the same subsetting spelling as aosd_counters and
    // aosd_traffic.
    SpanOptions opts = smallOptions();
    opts.requestsPerPair = 50;
    opts.machines = {MachineId::SPARC, MachineId::R3000};
    ParallelRunner runner(2);
    Json doc = buildSpansDoc(runner, opts);
    const Json &machines = doc.at("machines");
    ASSERT_EQ(machines.size(), 2u);
    EXPECT_EQ(machines.items()[0].first, "SPARC");
    EXPECT_EQ(machines.items()[1].first, "R3000");
    EXPECT_EQ(doc.at("ipc").size(), 2u);
}

TEST_F(SpantraceTest, SpansDocIsByteIdenticalAcrossJobs)
{
    ParallelRunner serial(1);
    Json doc1 = buildSpansDoc(serial, smallOptions());
    ParallelRunner fanned(8);
    Json doc8 = buildSpansDoc(fanned, smallOptions());
    EXPECT_EQ(doc1.dump(), doc8.dump());
}

TEST_F(SpantraceTest, SpansDocSchema)
{
    ParallelRunner runner(4);
    Json doc = buildSpansDoc(runner, smallOptions());
    EXPECT_EQ(doc.at("schema_version").asUint(),
              static_cast<std::uint64_t>(spansSchemaVersion));
    const Json &machines = doc.at("machines");
    EXPECT_EQ(machines.size(), table1Machines().size());
    for (const auto &[mslug, prims] : machines.items()) {
        (void)mslug;
        for (const auto &[pslug, cell] : prims.items()) {
            (void)pslug;
            ASSERT_TRUE(cell.has("cycles"));
            ASSERT_TRUE(cell.has("exemplars"));
            const Json &hist = cell.at("cycles");
            EXPECT_TRUE(hist.has("p50"));
            EXPECT_TRUE(hist.has("p99"));
            EXPECT_TRUE(hist.has("p999"));
        }
    }
    EXPECT_EQ(doc.at("ipc").size(), table1Machines().size());
}

TEST_F(SpantraceTest, ExemplarsAreSlowestFirstWithStableTieBreak)
{
    ParallelRunner runner(4);
    Json doc = buildSpansDoc(runner, smallOptions());
    for (const auto &[mslug, prims] : doc.at("machines").items()) {
        for (const auto &[pslug, cell] : prims.items()) {
            const Json &ex = cell.at("exemplars");
            ASSERT_GT(ex.size(), 0u) << mslug << "." << pslug;
            for (std::size_t i = 1; i < ex.size(); ++i) {
                std::uint64_t prev =
                    ex.at(i - 1).at("cycles").asUint();
                std::uint64_t cur = ex.at(i).at("cycles").asUint();
                EXPECT_GE(prev, cur) << mslug << "." << pslug;
                if (prev == cur) {
                    EXPECT_LT(ex.at(i - 1).at("id").asUint(),
                              ex.at(i).at("id").asUint());
                }
            }
            // The exemplar tree carries the request's counters.
            EXPECT_TRUE(ex.at(0).at("spans").has("counters"));
        }
    }
}

TEST_F(SpantraceTest, TailAttributionExplainsTheGapEverywhere)
{
    // The acceptance gate: on every Table 1 machine x primitive pair
    // the p99 exemplar's priced counter deltas must explain >= 80% of
    // the p99-minus-median cycle gap. (Requests are all priced
    // primitive events, so the attribution is in fact exact; the
    // assert leaves the mandated 20% slack.)
    ParallelRunner runner(4);
    Json doc = buildSpansDoc(runner, smallOptions());
    std::size_t cells = 0;
    for (const auto &[mslug, prims] : doc.at("machines").items()) {
        for (const auto &[pslug, cell] : prims.items()) {
            const Json &attr = cell.at("tail_attribution");
            double gap = attr.at("gap_cycles").asNumber();
            EXPECT_GT(gap, 0.0) << mslug << "." << pslug;
            EXPECT_GE(attr.at("explained_pct").asNumber(), 80.0)
                << mslug << "." << pslug;
            ++cells;
        }
    }
    EXPECT_EQ(cells, table1Machines().size() * 4);
}

TEST_F(SpantraceTest, IpcModelsTraceTheirComponentBreakdowns)
{
    ParallelRunner runner(2);
    Json doc = buildSpansDoc(runner, smallOptions());
    for (const auto &[mslug, cell] : doc.at("ipc").items()) {
        (void)mslug;
        for (const char *model : {"rpc", "lrpc", "urpc"}) {
            ASSERT_TRUE(cell.has(model));
            const Json &entry = cell.at(model);
            ASSERT_TRUE(entry.has("spans")) << model;
            // The group span nests the model's component leaves.
            const Json &root = entry.at("spans");
            ASSERT_TRUE(root.has("spans")) << model;
            EXPECT_EQ(root.at("spans").at(0).at("name").asString(),
                      model);
            EXPECT_GT(root.at("spans").at(0).at("spans").size(), 2u)
                << model;
        }
    }
}

TEST_F(SpantraceTest, SpansDocRoundTripsThroughThePerfDb)
{
    ParallelRunner runner(4);
    Json spans = buildSpansDoc(runner, smallOptions());
    PerfDbRecordInputs in;
    in.spans = &spans;
    Json recJson = buildPerfDbRecord("c1", "t1", "h", "f", in);
    PerfDbRecord rec(recJson);

    bool saw_percentile = false;
    for (const PerfLeaf &leaf : recordMetrics(rec)) {
        EXPECT_EQ(leaf.path.rfind("spans.", 0), 0u) << leaf.path;
        // The digest strips the per-request trees.
        EXPECT_EQ(leaf.path.find("exemplars"), std::string::npos)
            << leaf.path;
        EXPECT_EQ(leaf.path.find("requests_per_pair"),
                  std::string::npos)
            << leaf.path;
        if (leaf.path == "spans.machines.R3000.null_syscall."
                         "cycles.p99") {
            saw_percentile = true;
            EXPECT_GT(leaf.value, 0.0);
        }
    }
    EXPECT_TRUE(saw_percentile);

    // Identical runs band cleanly through the trend checker (three
    // records: the band needs two baseline points).
    PerfDb db;
    ASSERT_TRUE(db.append(recJson));
    ASSERT_TRUE(
        db.append(buildPerfDbRecord("c2", "t2", "h", "f", in)));
    ASSERT_TRUE(
        db.append(buildPerfDbRecord("c3", "t3", "h", "f", in)));
    TrendCheckResult check = checkTrends(db, 0.05, 20, "spans.");
    EXPECT_TRUE(check.ok());
    EXPECT_GT(check.metricsChecked, 0u);
}

} // namespace
