/**
 * @file
 * Tests for the observability layer: JSON round-trips of the
 * StatRegistry, trace ring-buffer overflow behaviour, and event
 * ordering under a simulated context switch.
 */

#include <gtest/gtest.h>

#include "arch/machines.hh"
#include "os/kernel/kernel.hh"
#include "sim/json.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"

using namespace aosd;

namespace
{

/** Restore global tracer/registry state around each test. */
class ObservabilityTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        Tracer::instance().disable();
        Tracer::instance().clear();
        StatRegistry::instance().setRetainRetired(false);
    }
};

using StatsJsonTest = ObservabilityTest;
using TraceRingTest = ObservabilityTest;
using TraceOrderTest = ObservabilityTest;

} // namespace

// ---- JSON primitive behaviour -------------------------------------

TEST(JsonTest, DumpParseRoundTrip)
{
    Json doc = Json::object();
    doc.set("int", Json(42));
    doc.set("neg", Json(-17.25));
    doc.set("big", Json(std::uint64_t{123456789012345ull}));
    doc.set("str", Json("line\nbreak \"quoted\" \\slash"));
    doc.set("flag", Json(true));
    doc.set("none", Json(nullptr));
    Json arr = Json::array();
    arr.push(Json(1));
    arr.push(Json("two"));
    arr.push(Json(3.5));
    doc.set("arr", std::move(arr));

    for (int indent : {-1, 0, 2}) {
        std::string err;
        Json back = Json::parse(doc.dump(indent), &err);
        EXPECT_TRUE(err.empty()) << err;
        EXPECT_TRUE(back == doc) << doc.dump(2);
    }
}

TEST(JsonTest, ParseRejectsMalformedInput)
{
    for (const char *bad :
         {"", "{", "[1,", "{\"a\":}", "tru", "\"unterminated",
          "{\"a\":1}garbage", "[1 2]"}) {
        std::string err;
        Json v = Json::parse(bad, &err);
        EXPECT_TRUE(v.isNull()) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
}

TEST(JsonTest, ParseBoundsNestingDepth)
{
    // 100k levels would overflow the stack of a recursive parser.
    std::string err;
    Json v = Json::parse(std::string(100'000, '['), &err);
    EXPECT_TRUE(v.isNull());
    EXPECT_NE(err.find("nesting too deep"), std::string::npos) << err;

    // 512 levels is the limit, not an error.
    std::string deep = std::string(512, '[') + std::string(512, ']');
    err.clear();
    v = Json::parse(deep, &err);
    EXPECT_TRUE(err.empty()) << err;
    EXPECT_TRUE(v.isArray());
    err.clear();
    Json::parse("[" + deep + "]", &err);
    EXPECT_NE(err.find("nesting too deep"), std::string::npos) << err;
}

TEST(JsonTest, ParseRejectsOutOfRangeNumbers)
{
    for (const char *bad :
         {"{\"a\":1e999999}", "[-1e400]", "1e309"}) {
        std::string err;
        Json v = Json::parse(bad, &err);
        EXPECT_TRUE(v.isNull()) << bad;
        EXPECT_NE(err.find("number out of range"), std::string::npos)
            << bad << ": " << err;
    }
    std::string err;
    EXPECT_EQ(Json::parse("[1.7976931348623157e308]", &err)
                  .at(0)
                  .asNumber(),
              1.7976931348623157e308);
    EXPECT_TRUE(err.empty()) << err;
}

TEST(JsonTest, ObjectPreservesInsertionOrder)
{
    Json doc = Json::object();
    doc.set("zebra", Json(1));
    doc.set("alpha", Json(2));
    doc.set("mid", Json(3));
    EXPECT_EQ(doc.items()[0].first, "zebra");
    EXPECT_EQ(doc.items()[1].first, "alpha");
    EXPECT_EQ(doc.items()[2].first, "mid");
}

// ---- StatRegistry -------------------------------------------------

TEST_F(StatsJsonTest, RegistryJsonRoundTrip)
{
    StatGroup a("alpha");
    a.inc("x", 3);
    a.inc("y", 7);
    StatGroup b("beta");
    b.inc("z", 11);

    Json snap = StatRegistry::instance().toJson();
    std::string err;
    Json back = Json::parse(snap.dump(2), &err);
    ASSERT_TRUE(err.empty()) << err;

    std::vector<StatGroup> parsed =
        StatRegistry::parseSnapshot(back);
    // The snapshot includes every live group in the process (other
    // tests' fixtures may be alive); ours must round-trip exactly.
    bool found_a = false, found_b = false;
    for (const StatGroup &g : parsed) {
        if (g.groupName() == "alpha" && g == a)
            found_a = true;
        if (g.groupName() == "beta" && g == b)
            found_b = true;
    }
    EXPECT_TRUE(found_a);
    EXPECT_TRUE(found_b);
}

TEST_F(StatsJsonTest, GroupsRegisterForTheirLifetime)
{
    const StatRegistry &reg = StatRegistry::instance();
    std::size_t before = reg.groups().size();
    {
        StatGroup g("ephemeral");
        g.inc("n");
        EXPECT_EQ(reg.groups().size(), before + 1);
        EXPECT_NE(reg.findGroup("ephemeral"), nullptr);
    }
    EXPECT_EQ(reg.groups().size(), before);
    EXPECT_EQ(reg.findGroup("ephemeral"), nullptr);
}

TEST_F(StatsJsonTest, RetiredCountersAccumulateWhenRetained)
{
    StatRegistry &reg = StatRegistry::instance();
    reg.setRetainRetired(true);
    for (int i = 0; i < 3; ++i) {
        StatGroup g("transient");
        g.inc("events", 5);
    }
    Json snap = reg.toJson();
    bool found = false;
    const Json &groups = snap.at("stat_groups");
    for (std::size_t i = 0; i < groups.size(); ++i) {
        const Json &g = groups.at(i);
        if (g.at("name").asString() == "transient.retired") {
            EXPECT_EQ(g.at("counters").at("events").asUint(), 15u);
            found = true;
        }
    }
    EXPECT_TRUE(found);
    reg.setRetainRetired(false);
    // Disabling retention clears the aggregate.
    EXPECT_EQ(reg.toJson().dump().find("transient.retired"),
              std::string::npos);
}

// ---- trace ring buffer --------------------------------------------

TEST_F(TraceRingTest, RingOverflowKeepsNewestRecords)
{
    Tracer &tr = Tracer::instance();
    tr.enable(4);
    for (std::uint64_t i = 0; i < 10; ++i) {
        tr.setCycle(100 + i);
        tr.instant(TraceEvent::Mark, "m", i);
    }
    EXPECT_EQ(tr.size(), 4u);
    EXPECT_EQ(tr.capacity(), 4u);
    EXPECT_EQ(tr.dropped(), 6u);
    // Oldest surviving record is the 7th emitted (arg 6).
    for (std::size_t i = 0; i < tr.size(); ++i) {
        EXPECT_EQ(tr.at(i).arg, 6 + i);
        EXPECT_EQ(tr.at(i).cycle, 106 + i);
    }
    // Export reports the loss. The event array leads with metadata
    // (one process_name + one thread_name for the single lane in use)
    // before the 4 surviving records.
    Json doc = tr.toChromeJson();
    EXPECT_EQ(doc.at("otherData").at("dropped_records").asUint(), 6u);
    std::size_t records = 0;
    std::size_t metadata = 0;
    for (std::size_t i = 0; i < doc.at("traceEvents").size(); ++i) {
        const Json &ev = doc.at("traceEvents").at(i);
        if (ev.at("ph").asString() == "M")
            ++metadata;
        else
            ++records;
    }
    EXPECT_EQ(records, 4u);
    EXPECT_EQ(metadata, 2u);
}

TEST_F(TraceRingTest, DisabledTracerRecordsNothing)
{
    Tracer &tr = Tracer::instance();
    tr.enable(8);
    tr.disable();
    tr.instant(TraceEvent::Mark, "ignored");
    EXPECT_EQ(tr.size(), 0u);
}

TEST_F(TraceRingTest, ClockNeverMovesBackwards)
{
    Tracer &tr = Tracer::instance();
    tr.enable(8);
    tr.setCycle(50);
    tr.setCycle(20);
    EXPECT_EQ(tr.cycle(), 50u);
    tr.complete(60, 5, TraceEvent::Mark, "m");
    EXPECT_EQ(tr.cycle(), 65u);
}

// ---- event ordering under a simulated context switch ---------------

TEST_F(TraceOrderTest, ContextSwitchEmitsOrderedEvents)
{
    Tracer &tr = Tracer::instance();
    tr.enable(1 << 12);

    SimKernel kernel(makeMachine(MachineId::CVAX));
    AddressSpace &a = kernel.createSpace("a");
    AddressSpace &b = kernel.createSpace("b");
    a.setWorkingSet(0x1000, 8);
    b.setWorkingSet(0x2000, 8);
    a.mapRange(0x1000, 8, 0x9000, {});
    b.mapRange(0x2000, 8, 0xa000, {});

    kernel.contextSwitchTo(a);
    std::size_t start = tr.size();
    kernel.contextSwitchTo(b);

    auto records = tr.snapshot();
    ASSERT_GT(records.size(), start);

    // The switch must open with Begin and close with End, and the
    // purge/refill activity must land between them in cycle order.
    const TraceRecord &first = records[start];
    const TraceRecord &last = records.back();
    EXPECT_EQ(first.event, TraceEvent::ContextSwitch);
    EXPECT_EQ(first.phase, TracePhase::Begin);
    EXPECT_EQ(last.event, TraceEvent::ContextSwitch);
    EXPECT_EQ(last.phase, TracePhase::End);
    EXPECT_GE(last.cycle, first.cycle);

    bool saw_purge = false, saw_miss = false, saw_fill = false;
    Cycles prev = first.cycle;
    for (std::size_t i = start; i < records.size(); ++i) {
        const TraceRecord &r = records[i];
        EXPECT_GE(r.cycle, prev)
            << "event " << i << " (" << r.name
            << ") timestamped before its predecessor";
        prev = r.cycle;
        saw_purge |= r.event == TraceEvent::TlbPurge;
        saw_miss |= r.event == TraceEvent::TlbMiss;
        saw_fill |= r.event == TraceEvent::TlbFill;
    }
    // The CVAX TLB is untagged: the switch purges, then the target's
    // working set refills.
    EXPECT_TRUE(saw_purge);
    EXPECT_TRUE(saw_miss);
    EXPECT_TRUE(saw_fill);
}

TEST_F(TraceOrderTest, SyscallEmitsCompleteEventWithCost)
{
    Tracer &tr = Tracer::instance();
    tr.enable(64);

    SimKernel kernel(makeMachine(MachineId::R3000));
    Cycles before = kernel.elapsedCycles();
    kernel.syscall();
    Cycles cost = kernel.elapsedCycles() - before;

    auto records = tr.snapshot();
    ASSERT_FALSE(records.empty());
    const TraceRecord &r = records.back();
    EXPECT_EQ(r.event, TraceEvent::Syscall);
    EXPECT_EQ(r.phase, TracePhase::Complete);
    EXPECT_EQ(r.duration, cost);
}
