/**
 * @file
 * Tests for the observability layer: the JSON number writer against
 * an exhaustive probe, trace ring-buffer overflow behaviour, and
 * event ordering under a simulated context switch.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <vector>

#include "arch/machines.hh"
#include "os/kernel/kernel.hh"
#include "sim/json.hh"
#include "sim/trace.hh"

using namespace aosd;

namespace
{

/** Restore global tracer state around each test. */
class ObservabilityTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        Tracer::instance().disable();
        Tracer::instance().clear();
    }
};

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

namespace
{

/**
 * The number format as an exhaustive probe: integers below 1e15 via
 * "%.0f", otherwise the first "%.{p}g" for p = 1..16 that round-trips,
 * else "%.17g". Json::dump must match it byte for byte.
 */
std::string
probedNumber(double d)
{
    if (std::isnan(d) || std::isinf(d))
        return "null";
    if (d == std::floor(d) && std::fabs(d) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", d);
        return buf;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    for (int prec = 1; prec < 17; ++prec) {
        char probe[32];
        std::snprintf(probe, sizeof(probe), "%.*g", prec, d);
        if (std::strtod(probe, nullptr) == d)
            return probe;
    }
    return buf;
}

/** The probe costs ~25 us a number, so the corpus runs in shards. */
class JsonNumberProbe : public ::testing::TestWithParam<int>
{
  public:
    static constexpr int shards = 8;
};

} // namespace

TEST_P(JsonNumberProbe, DumpMatchesTheProbeAndRoundTrips)
{
    std::mt19937_64 rng(0x4a534f4e);
    std::vector<double> corpus;
    auto withNeighbours = [&](double d) {
        for (double v : {d, -d}) {
            corpus.push_back(v);
            corpus.push_back(std::nextafter(v, -INFINITY));
            corpus.push_back(std::nextafter(v, INFINITY));
        }
    };
    // Random bit patterns: every exponent, NaNs and infinities too.
    for (int i = 0; i < 1'000'000; ++i)
        corpus.push_back(std::bit_cast<double>(rng()));
    // Powers of two, subnormal to largest, and one ulp either side.
    for (int e = -1074; e <= 1023; ++e)
        withNeighbours(std::ldexp(1.0, e));
    for (int i = 0; i < 10'000; ++i)
        corpus.push_back(std::bit_cast<double>(
            rng() & ((std::uint64_t{1} << 52) - 1)));
    withNeighbours(0.0);
    withNeighbours(std::numeric_limits<double>::min());
    withNeighbours(std::numeric_limits<double>::max());
    // The integer cut-off and the end of exact integers.
    for (double base : {1e15, 9007199254740992.0})
        for (int k = -4; k <= 4; ++k)
            withNeighbours(base + k);
    withNeighbours(1e15 - 0.5);
    for (int i = 0; i < 10'000; ++i) {
        std::uint64_t whole = rng() % 1'000'000'000'000'000;
        withNeighbours(static_cast<double>(whole >> rng() % 50));
    }
    // Rates and ratios, the numbers the documents actually hold.
    for (int i = 0; i < 200'000; ++i) {
        double num = static_cast<double>(rng() % 10'000'000);
        double den = static_cast<double>(rng() % 100'000 + 1);
        corpus.push_back((rng() & 1 ? -num : num) / den);
    }

    std::size_t mismatches = 0;
    for (auto i = static_cast<std::size_t>(GetParam()); i < corpus.size();
         i += shards) {
        double d = corpus[i];
        std::string got = Json(d).dump();
        std::string want = probedNumber(d);
        bool bits_back = !std::isfinite(d) ||
                         std::bit_cast<std::uint64_t>(
                             Json::parse(got).asNumber()) ==
                             std::bit_cast<std::uint64_t>(d);
        if (got == want && bits_back)
            continue;
        if (++mismatches <= 10)
            ADD_FAILURE() << std::hexfloat << d << ": wrote " << got
                          << ", probe wrote " << want
                          << (bits_back ? "" : " (does not round-trip)");
    }
    EXPECT_EQ(mismatches, 0u)
        << "of " << corpus.size() / shards << " numbers";
}

INSTANTIATE_TEST_SUITE_P(Shards, JsonNumberProbe,
                         ::testing::Range(0, JsonNumberProbe::shards));

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
    for (const char *bad :
         {"[1e]", "[1e+]", "[-]", "[--1]", "[1.5.5]"}) {
        std::string err;
        Json v = Json::parse(bad, &err);
        EXPECT_TRUE(v.isNull()) << bad;
        EXPECT_NE(err.find("malformed number"), std::string::npos)
            << bad << ": " << err;
    }
    // Laxer than JSON, as strtod is: a bare trailing point, a leading
    // zero and a missing integer part all read.
    for (auto [text, want] :
         {std::pair{"[1.]", 1.0}, {"[01]", 1.0}, {"[-.5]", -0.5}}) {
        std::string err;
        Json v = Json::parse(text, &err);
        ASSERT_TRUE(v.isArray()) << text << ": " << err;
        EXPECT_EQ(v.at(0).asNumber(), want) << text;
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
    // Underflow is not out of range: it reads as zero, keeping the sign.
    for (auto [text, negative] : {std::pair{"[1e-400]", false},
                                  {"[2e-324]", false},
                                  {"[-1e-400]", true}}) {
        Json v = Json::parse(text, &err);
        EXPECT_TRUE(err.empty()) << text << ": " << err;
        ASSERT_TRUE(v.isArray()) << text;
        EXPECT_EQ(v.at(0).asNumber(), 0.0) << text;
        EXPECT_EQ(std::signbit(v.at(0).asNumber()), negative) << text;
    }
    // The smallest denormal is in range.
    Json tiny = Json::parse("[5e-324]", &err);
    ASSERT_TRUE(tiny.isArray()) << err;
    EXPECT_EQ(tiny.at(0).asNumber(),
              std::numeric_limits<double>::denorm_min());
}

TEST(JsonTest, NodeIsCompact)
{
    EXPECT_LE(sizeof(Json), 16u);
}

TEST(JsonTest, CopiesAreDeepAndEqualUntilMutated)
{
    Json obj = Json::object();
    obj.set("k", Json("v"));
    Json arr = Json::array();
    arr.push(obj);
    for (const Json &source : {Json("text"), arr, obj}) {
        Json copy = source;
        EXPECT_TRUE(copy == source) << source.dump();
        std::string before = source.dump();
        if (copy.isString())
            copy = Json("other");
        else if (copy.isArray())
            copy.push(Json(1));
        else
            copy.set("k", Json(2));
        EXPECT_FALSE(copy == source) << before;
        EXPECT_EQ(source.dump(), before);
    }
    // A nested copy is deep too: the array's element is its own.
    obj.set("k", Json("changed"));
    EXPECT_EQ(arr.dump(), "[{\"k\":\"v\"}]");
}

TEST(JsonTest, MovedFromNodeIsNullAndReusable)
{
    Json obj = Json::object();
    obj.set("k", Json(1));
    Json arr = Json::array();
    arr.push(Json(1));
    for (Json source : {Json("text"), arr, obj, Json(2.5), Json(true)}) {
        std::string dumped = source.dump();
        Json taken = std::move(source);
        EXPECT_TRUE(source.isNull()) << dumped;
        EXPECT_EQ(source.dump(), "null");
        EXPECT_EQ(taken.dump(), dumped);
        Json assigned;
        assigned = std::move(taken);
        EXPECT_TRUE(taken.isNull()) << dumped;
        EXPECT_EQ(assigned.dump(), dumped);
        source = Json("again");
        EXPECT_EQ(source.dump(), "\"again\"");
    }
}

TEST(JsonTest, RepeatedKeyKeepsFirstPositionAndLastValue)
{
    std::string err;
    Json doc = Json::parse("{\"a\":1,\"b\":2,\"a\":3}", &err);
    EXPECT_TRUE(err.empty()) << err;
    EXPECT_EQ(doc.dump(), "{\"a\":3,\"b\":2}");
    doc = Json::parse("{\"b\":[],\"a\":1,\"b\":2,\"c\":0,\"b\":{}}",
                      &err);
    EXPECT_EQ(doc.dump(), "{\"b\":{},\"a\":1,\"c\":0}");
}

// Registered with a ctest TIMEOUT (tests/CMakeLists.txt): parsing must
// stay O(n log n) in an object's member count, so a hostile file of
// many keys cannot stall a tool.
TEST(JsonScale, HundredThousandKeyObjectParses)
{
    constexpr int keys = 100'000;
    std::string text = "{";
    for (int i = 0; i < keys; ++i)
        text += (i ? ",\"k" : "\"k") + std::to_string(i) +
                "\":" + std::to_string(i);
    text += ",\"k0\":-1}";
    std::string err;
    Json doc = Json::parse(text, &err);
    EXPECT_TRUE(err.empty()) << err;
    ASSERT_EQ(doc.size(), std::size_t{keys});
    EXPECT_EQ(doc.items().front().first, "k0");
    EXPECT_EQ(doc.items().front().second.asNumber(), -1);
    EXPECT_EQ(doc.items().back().first, "k99999");
    EXPECT_EQ(doc.items().back().second.asNumber(), 99'999);
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
