/**
 * @file
 * Tests for the synthetic traffic driver (workload/traffic):
 * traffic.json shape, byte-identity across job counts, the exact-100%
 * kernel-window reconciliation the request classes guarantee, open vs
 * closed queueing behavior, the slowest-request exemplars, and the
 * perfdb ingest digest.
 */

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "arch/machines.hh"
#include "fnv1a.hh"
#include "sim/counters/counters.hh"
#include "sim/parallel/parallel_runner.hh"
#include "sim/perfdb/perfdb.hh"
#include "study/trend_report.hh"
#include "workload/traffic.hh"

using namespace aosd;

namespace
{

class TrafficTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        HwCounters::instance().disable();
        HwCounters::instance().reset();
    }

    void
    TearDown() override
    {
        SetUp();
    }

    /** Small two-machine sweep that still exercises queueing. */
    TrafficConfig
    smallConfig()
    {
        TrafficConfig cfg;
        cfg.requestsPerLevel = 800;
        cfg.levels = {0.5, 1.1};
        cfg.machines = {MachineId::CVAX, MachineId::R3000};
        return cfg;
    }
};

TEST_F(TrafficTest, DocShapeAndConfigEcho)
{
    TrafficConfig cfg = smallConfig();
    ParallelRunner serial(1);
    Json doc = buildTrafficDoc(cfg, serial);

    EXPECT_EQ(doc.at("schema_version").asUint(), 1u);
    EXPECT_EQ(doc.at("kind").asString(), "traffic");
    EXPECT_EQ(doc.at("config").at("mode").asString(), "open");
    EXPECT_EQ(doc.at("config").at("arrival").asString(), "uniform");
    EXPECT_EQ(doc.at("total_requests").asUint(), 800u * 4u);
    ASSERT_EQ(doc.at("machines").size(), 2u);
    const Json &m0 = doc.at("machines").at(0);
    EXPECT_EQ(m0.at("machine").asString(), "CVAX");
    ASSERT_EQ(m0.at("load_levels").size(), 2u);
    const Json &cell = m0.at("load_levels").at(0);
    EXPECT_EQ(cell.at("requests").asUint(), 800u);
    EXPECT_GT(cell.at("throughput_rps").asNumber(), 0.0);
    EXPECT_GT(cell.at("latency_cycles").at("all").at("p50").asNumber(),
              0.0);
    // Every request class appears in the per-class breakdown, and
    // their counts sum to the cell's request count.
    const Json &per_class = cell.at("latency_cycles").at("per_class");
    std::uint64_t class_count = 0;
    for (const auto &[name, hist] : per_class.items()) {
        EXPECT_FALSE(name.empty());
        class_count += hist.at("count").asUint();
    }
    EXPECT_EQ(class_count, 800u);
    EXPECT_EQ(cell.at("wait_cycles").at("count").asUint(), 800u);
}

TEST_F(TrafficTest, ByteIdenticalAcrossJobs)
{
    TrafficConfig cfg = smallConfig();
    ParallelRunner serial(1);
    std::string base = buildTrafficDoc(cfg, serial).dump(1);

    ParallelRunner fanned(8);
    EXPECT_EQ(base, buildTrafficDoc(cfg, fanned).dump(1));
}

TEST_F(TrafficTest, EveryCellKernelWindowExplainsExactly100Pct)
{
    // The request classes use only the closed-form primitives the
    // reconciliation prices exactly, so 100.0% — not "within
    // tolerance" — is the contract.
    TrafficConfig cfg = smallConfig();
    ParallelRunner serial(1);
    Json doc = buildTrafficDoc(cfg, serial);
    for (std::size_t mi = 0; mi < doc.at("machines").size(); ++mi) {
        const Json &levels = doc.at("machines").at(mi).at("load_levels");
        for (std::size_t li = 0; li < levels.size(); ++li) {
            const Json &kw = levels.at(li).at("kernel_window");
            EXPECT_EQ(kw.at("explained_pct").asNumber(), 100.0)
                << "machine " << mi << " level " << li;
        }
    }
}

TEST_F(TrafficTest, OverloadGrowsLatencyAndQueueDepth)
{
    TrafficConfig cfg;
    cfg.requestsPerLevel = 2000;
    cfg.levels = {0.3, 1.3};
    cfg.machines = {MachineId::R3000};
    ParallelRunner serial(1);
    Json doc = buildTrafficDoc(cfg, serial);
    const Json &levels = doc.at("machines").at(0).at("load_levels");
    const Json &light = levels.at(0);
    const Json &heavy = levels.at(1);
    // Past saturation the queue builds without bound and p99 latency
    // blows up relative to the lightly-loaded cell.
    EXPECT_GT(heavy.at("max_queue_depth").asUint(),
              4 * light.at("max_queue_depth").asUint());
    EXPECT_GT(heavy.at("latency_cycles").at("all").at("p99").asNumber(),
              10 * light.at("latency_cycles")
                       .at("all")
                       .at("p99")
                       .asNumber());
}

TEST_F(TrafficTest, ClosedLoopBoundsOutstandingRequests)
{
    TrafficConfig cfg;
    cfg.mode = TrafficMode::Closed;
    cfg.requestsPerLevel = 2000;
    cfg.levels = {4};
    cfg.machines = {MachineId::R3000};
    ParallelRunner serial(1);
    Json doc = buildTrafficDoc(cfg, serial);
    const Json &cell = doc.at("machines").at(0).at("load_levels").at(0);
    // A 4-client population can never queue more than 4 deep — the
    // self-throttling the open loop lacks.
    EXPECT_LE(cell.at("max_queue_depth").asUint(), 4u);
    EXPECT_EQ(cell.at("kernel_window").at("explained_pct").asNumber(),
              100.0);
}

TEST_F(TrafficTest, ArrivalProcessesAreDeterministicAndDistinct)
{
    for (TrafficArrival a :
         {TrafficArrival::Uniform, TrafficArrival::Bursty,
          TrafficArrival::Diurnal}) {
        TrafficConfig cfg;
        cfg.arrival = a;
        cfg.requestsPerLevel = 500;
        cfg.levels = {0.8};
        cfg.machines = {MachineId::CVAX};
        ParallelRunner serial(1);
        std::string one = buildTrafficDoc(cfg, serial).dump();
        ParallelRunner two(2);
        EXPECT_EQ(one, buildTrafficDoc(cfg, two).dump())
            << trafficArrivalName(a);
    }
    // Bursty arrivals clump: same mean rate, deeper worst-case queue
    // than the uniform process on the same seed and machine.
    TrafficConfig uni;
    uni.requestsPerLevel = 4000;
    uni.levels = {0.9};
    uni.machines = {MachineId::R3000};
    TrafficConfig burst = uni;
    burst.arrival = TrafficArrival::Bursty;
    ParallelRunner serial(1);
    Json u = buildTrafficDoc(uni, serial);
    Json b = buildTrafficDoc(burst, serial);
    EXPECT_GT(b.at("machines")
                  .at(0)
                  .at("load_levels")
                  .at(0)
                  .at("max_queue_depth")
                  .asUint(),
              u.at("machines")
                  .at(0)
                  .at("load_levels")
                  .at(0)
                  .at("max_queue_depth")
                  .asUint());
}

TEST_F(TrafficTest, SlowestRequestExemplarsAreSortedAndCapped)
{
    TrafficConfig cfg = smallConfig();
    cfg.exemplars = 3;
    ParallelRunner serial(1);
    Json doc = buildTrafficDoc(cfg, serial);
    const Json &slow = doc.at("machines")
                           .at(0)
                           .at("load_levels")
                           .at(1)
                           .at("slowest_requests");
    ASSERT_EQ(slow.size(), 3u);
    for (std::size_t i = 1; i < slow.size(); ++i)
        EXPECT_GE(slow.at(i - 1).at("latency_cycles").asUint(),
                  slow.at(i).at("latency_cycles").asUint());
    for (std::size_t i = 0; i < slow.size(); ++i) {
        const Json &e = slow.at(i);
        EXPECT_EQ(e.at("latency_cycles").asUint(),
                  e.at("wait_cycles").asUint() +
                      e.at("service_cycles").asUint());
    }
}

TEST_F(TrafficTest, ZeroExemplarsGiveEmptyListsOnEveryCell)
{
    TrafficConfig cfg = smallConfig();
    cfg.exemplars = 0;
    ParallelRunner serial(1);
    Json doc = buildTrafficDoc(cfg, serial);
    for (std::size_t mi = 0; mi < doc.at("machines").size(); ++mi) {
        const Json &levels = doc.at("machines").at(mi).at("load_levels");
        for (std::size_t li = 0; li < levels.size(); ++li) {
            const Json &slow = levels.at(li).at("slowest_requests");
            EXPECT_TRUE(slow.isArray()) << mi << "/" << li;
            EXPECT_EQ(slow.size(), 0u) << mi << "/" << li;
        }
    }
}

TEST_F(TrafficTest, ExemplarsForEveryRequestAreTotallyOrdered)
{
    TrafficConfig cfg = smallConfig();
    cfg.exemplars = cfg.requestsPerLevel;
    TrafficConfig top3 = smallConfig();
    top3.exemplars = 3;
    ParallelRunner serial(1);
    Json all = buildTrafficDoc(cfg, serial);
    Json three = buildTrafficDoc(top3, serial);
    for (std::size_t mi = 0; mi < all.at("machines").size(); ++mi) {
        const Json &levels = all.at("machines").at(mi).at("load_levels");
        for (std::size_t li = 0; li < levels.size(); ++li) {
            const Json &slow = levels.at(li).at("slowest_requests");
            ASSERT_EQ(slow.size(), cfg.requestsPerLevel);
            // Latency desc, then id asc, strictly: every request once.
            for (std::size_t i = 1; i < slow.size(); ++i) {
                const Json &a = slow.at(i - 1);
                const Json &b = slow.at(i);
                const std::uint64_t la = a.at("latency_cycles").asUint();
                const std::uint64_t lb = b.at("latency_cycles").asUint();
                EXPECT_TRUE(la > lb ||
                            (la == lb &&
                             a.at("id").asUint() < b.at("id").asUint()))
                    << mi << "/" << li << " entry " << i;
            }
            const Json &head = three.at("machines")
                                   .at(mi)
                                   .at("load_levels")
                                   .at(li)
                                   .at("slowest_requests");
            ASSERT_EQ(head.size(), 3u);
            for (std::size_t i = 0; i < head.size(); ++i)
                EXPECT_EQ(slow.at(i).dump(), head.at(i).dump())
                    << mi << "/" << li << " entry " << i;
        }
    }
}

// Every latency, wait and exemplar byte of a small sweep, per arrival
// process and loop mode. perfbench checks the full sweeps' digests,
// outside ctest; these pin small ones inside it. A change to what a
// sweep simulates must update them on purpose.
TEST_F(TrafficTest, SmallSweepBytesPinned)
{
    ParallelRunner serial(1);
    TrafficConfig uniform = smallConfig();
    EXPECT_EQ(fnv1a(buildTrafficDoc(uniform, serial).dump(1)),
              "f83ff2d9f7b9e876");

    TrafficConfig bursty = smallConfig();
    bursty.arrival = TrafficArrival::Bursty;
    EXPECT_EQ(fnv1a(buildTrafficDoc(bursty, serial).dump(1)),
              "21808c963085ab06");

    TrafficConfig closed = smallConfig();
    closed.mode = TrafficMode::Closed;
    closed.levels = {2, 8};
    EXPECT_EQ(fnv1a(buildTrafficDoc(closed, serial).dump(1)),
              "7e721e640e58bced");

    TrafficConfig diurnal = smallConfig();
    diurnal.arrival = TrafficArrival::Diurnal;
    EXPECT_EQ(fnv1a(buildTrafficDoc(diurnal, serial).dump(1)),
              "af7c31cc87e46d40");

    // The SPARC's virtual cache counts flushed lines on every PTE
    // change; the M88000 and R2000 price the other TLB and cache
    // designs.
    TrafficConfig designs = smallConfig();
    designs.machines = {MachineId::SPARC, MachineId::M88000,
                        MachineId::R2000};
    EXPECT_EQ(fnv1a(buildTrafficDoc(designs, serial).dump(1)),
              "e934bbbfe32f1b9e");

    // Populations from one client to far past saturation.
    TrafficConfig crowd = smallConfig();
    crowd.mode = TrafficMode::Closed;
    crowd.levels = {1, 4, 16, 64};
    EXPECT_EQ(fnv1a(buildTrafficDoc(crowd, serial).dump(1)),
              "513745f7e19a89f6");
}

TEST_F(TrafficTest, PerfDbIngestDigestsOutExemplars)
{
    TrafficConfig cfg = smallConfig();
    ParallelRunner serial(1);
    Json doc = buildTrafficDoc(cfg, serial);

    PerfDbRecordInputs in;
    in.traffic = &doc;
    PerfDbRecord rec(buildPerfDbRecord("c", "t", "h", "f", in));

    const Json *stored = rec.doc("traffic");
    ASSERT_NE(stored, nullptr);
    EXPECT_EQ(stored->dump().find("slowest_requests"),
              std::string::npos);

    bool saw_p99 = false, saw_explained = false;
    for (const PerfLeaf &leaf : recordMetrics(rec)) {
        if (leaf.path == "traffic.CVAX.l0.latency_cycles.all.p99")
            saw_p99 = true;
        if (leaf.path ==
            "traffic.R3000.l1.kernel_window.explained_pct") {
            saw_explained = true;
            EXPECT_DOUBLE_EQ(leaf.value, 100.0);
        }
    }
    EXPECT_TRUE(saw_p99);
    EXPECT_TRUE(saw_explained);
}

TEST_F(TrafficTest, ConfigErrorAcceptsDefaultsAndSaneSweeps)
{
    EXPECT_EQ(trafficConfigError(TrafficConfig{}), "");
    EXPECT_EQ(trafficConfigError(smallConfig()), "");

    TrafficConfig closed;
    closed.mode = TrafficMode::Closed;
    closed.levels = {1, 4, 16, 64};
    closed.thinkFactor = 0;
    EXPECT_EQ(trafficConfigError(closed), "");

    TrafficConfig edges;
    edges.requestsPerLevel = trafficMaxRequests;
    edges.levels = {1e-9, trafficMaxOpenLoad};
    EXPECT_EQ(trafficConfigError(edges), "");
}

TEST_F(TrafficTest, ConfigErrorRejectsBadSweeps)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    auto rejects = [](const TrafficConfig &cfg, const char *what) {
        std::string err = trafficConfigError(cfg);
        EXPECT_NE(err.find(what), std::string::npos)
            << "'" << err << "' lacks '" << what << "'";
        EXPECT_EQ(err.find('\n'), std::string::npos) << err;
    };

    TrafficConfig cfg;
    cfg.requestsPerLevel = 0;
    rejects(cfg, "requests per level");
    // What strtoull makes of "-5".
    cfg.requestsPerLevel = static_cast<std::uint64_t>(-5);
    rejects(cfg, "requests per level");
    cfg.requestsPerLevel = trafficMaxRequests + 1;
    rejects(cfg, "requests per level");

    cfg = TrafficConfig{};
    cfg.levels.clear();
    rejects(cfg, "no load levels");
    for (double l : {0.0, -1.0, 1e30, trafficMaxOpenLoad * 1.01, inf,
                     nan}) {
        cfg.levels = {0.5, l};
        rejects(cfg, "open-loop load levels");
    }

    cfg = TrafficConfig{};
    cfg.mode = TrafficMode::Closed;
    for (double l : {0.3, 0.0, -4.0, 2.5, 1e30, inf, nan}) {
        cfg.levels = {4, l};
        rejects(cfg, "closed-loop load levels");
    }
    cfg.levels = {static_cast<double>(trafficMaxClients) + 1};
    rejects(cfg, "closed-loop load levels");

    cfg = TrafficConfig{};
    for (double t : {-3.0, inf, nan}) {
        cfg.thinkFactor = t;
        rejects(cfg, "think factor");
    }
}

TEST_F(TrafficTest, ConfigErrorBoundsExemplars)
{
    TrafficConfig cfg;
    for (std::size_t k : {std::size_t{0}, trafficMaxExemplars}) {
        cfg.exemplars = k;
        EXPECT_EQ(trafficConfigError(cfg), "") << k;
    }
    cfg.exemplars = trafficMaxExemplars + 1;
    std::string err = trafficConfigError(cfg);
    EXPECT_NE(err.find("exemplars"), std::string::npos) << err;
    EXPECT_NE(err.find("10001"), std::string::npos) << err;
    EXPECT_EQ(err.find('\n'), std::string::npos) << err;
}

TEST_F(TrafficTest, ReplayEventMixIsDeterministicAndCoversCounters)
{
    auto run = [](std::uint64_t seed) {
        MachineDesc m = makeMachine(MachineId::R3000);
        SimKernel kernel(m);
        AddressSpace &space = kernel.createSpace("mix");
        space.mapRange(0x1000, 64, 0x50000, {});
        HwCounters::instance().enable();
        std::uint64_t issued =
            replayEventMix(kernel, &space, 10'000, seed);
        CounterSet snap = HwCounters::instance().snapshot();
        HwCounters::instance().disable();
        HwCounters::instance().reset();
        return std::make_pair(issued, snap);
    };
    auto [issued_a, snap_a] = run(5);
    auto [issued_b, snap_b] = run(5);
    EXPECT_GE(issued_a, 10'000u);
    EXPECT_EQ(issued_a, issued_b);
    EXPECT_EQ(snap_a, snap_b);
    // The mix exercises every batchable primitive's counter.
    for (HwCounter c :
         {HwCounter::KernelSyscalls, HwCounter::KernelTraps,
          HwCounter::ThreadSwitches, HwCounter::EmulatedInstrs,
          HwCounter::EmulatedTasOps, HwCounter::PteChanges})
        EXPECT_GT(snap_a.get(c), 0u) << counterName(c);
}

} // namespace
