/**
 * @file
 * The cycle-attribution profiler: histogram bucket math and known
 * percentiles, ProfScope nesting/reentrancy/exception safety, and the
 * central invariant — every cycle a primitive charges is attributed to
 * exactly one leaf of the tree (sum-of-leaves == total), asserted for
 * every Table 1 machine × primitive.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <stdexcept>
#include <vector>

#include "arch/machines.hh"
#include "cpu/profiled_primitives.hh"
#include "sim/profile/histogram.hh"
#include "sim/profile/profile.hh"
#include "sim/random.hh"

using namespace aosd;

namespace
{

/** Every test runs against a freshly cleared, disabled profiler. */
class ProfilerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Profiler::instance().disable();
        Profiler::instance().clear();
    }

    void
    TearDown() override
    {
        Profiler::instance().disable();
        Profiler::instance().clear();
    }
};

TEST(ProfHistogram, BucketBoundaries)
{
    // Bucket 0 holds exactly 0; bucket i >= 1 holds [2^(i-1), 2^i).
    EXPECT_EQ(Histogram::bucketIndex(0), 0u);
    EXPECT_EQ(Histogram::bucketIndex(1), 1u);
    EXPECT_EQ(Histogram::bucketIndex(2), 2u);
    EXPECT_EQ(Histogram::bucketIndex(3), 2u);
    EXPECT_EQ(Histogram::bucketIndex(4), 3u);
    EXPECT_EQ(Histogram::bucketIndex(7), 3u);
    EXPECT_EQ(Histogram::bucketIndex(8), 4u);
    EXPECT_EQ(Histogram::bucketIndex(1023), 10u);
    EXPECT_EQ(Histogram::bucketIndex(1024), 11u);
    EXPECT_EQ(Histogram::bucketIndex(~std::uint64_t{0}), 64u);

    EXPECT_EQ(Histogram::bucketLowerBound(0), 0u);
    EXPECT_EQ(Histogram::bucketUpperBound(0), 0u);
    EXPECT_EQ(Histogram::bucketLowerBound(1), 1u);
    EXPECT_EQ(Histogram::bucketUpperBound(1), 1u);
    EXPECT_EQ(Histogram::bucketLowerBound(3), 4u);
    EXPECT_EQ(Histogram::bucketUpperBound(3), 7u);
    EXPECT_EQ(Histogram::bucketUpperBound(64), ~std::uint64_t{0});

    // Buckets tile the value space with no gaps or overlaps.
    for (std::size_t i = 1; i < Histogram::bucketCount; ++i)
        EXPECT_EQ(Histogram::bucketLowerBound(i),
                  Histogram::bucketUpperBound(i - 1) + 1);
    for (std::uint64_t v : {0ull, 1ull, 5ull, 100ull, 4096ull}) {
        std::size_t i = Histogram::bucketIndex(v);
        EXPECT_GE(v, Histogram::bucketLowerBound(i));
        EXPECT_LE(v, Histogram::bucketUpperBound(i));
    }
}

TEST(ProfHistogram, BucketIndexAtEveryPowerOfTwoEdge)
{
    // 2^k - 1 is the last value of bucket k, 2^k the first of k + 1
    // (k = 0 gives the value 0 in bucket 0 and 1 in bucket 1).
    for (unsigned k = 0; k < 64; ++k) {
        const std::uint64_t p = std::uint64_t{1} << k;
        EXPECT_EQ(Histogram::bucketIndex(p - 1), k) << "2^" << k << "-1";
        EXPECT_EQ(Histogram::bucketIndex(p), k + 1) << "2^" << k;
    }
}

/** Bucket by shifting one bit at a time: the definition, spelled out. */
std::size_t
naiveBucket(std::uint64_t v)
{
    std::size_t bits = 0;
    for (; v; v >>= 1)
        ++bits;
    return bits;
}

/** Percentile `p` of `sorted` by Histogram's documented rule, worked
 *  from the samples themselves: the rank-th sample's bucket, its
 *  bounds clamped to the observed min/max, interpolated across the
 *  samples that share the bucket. */
double
naivePercentile(const std::vector<std::uint64_t> &sorted, double p)
{
    const auto n = static_cast<std::uint64_t>(sorted.size());
    auto rank = static_cast<std::uint64_t>(
        p / 100.0 * static_cast<double>(n) + 0.9999999999);
    rank = std::clamp<std::uint64_t>(rank, 1, n);
    const std::size_t b = naiveBucket(sorted[rank - 1]);
    std::uint64_t first = 0; // samples in buckets below b
    std::uint64_t in_bucket = 0;
    for (std::uint64_t v : sorted) {
        if (naiveBucket(v) < b)
            ++first;
        else if (naiveBucket(v) == b)
            ++in_bucket;
    }
    const std::uint64_t blo =
        std::max(Histogram::bucketLowerBound(b), sorted.front());
    const std::uint64_t bhi = std::max(
        blo, std::min(Histogram::bucketUpperBound(b), sorted.back()));
    if (in_bucket <= 1 || bhi == blo)
        return static_cast<double>(blo);
    return static_cast<double>(blo) +
           static_cast<double>(bhi - blo) *
               static_cast<double>(rank - first - 1) /
               static_cast<double>(in_bucket - 1);
}

TEST(ProfHistogram, SampleMatchesNaiveReference)
{
    Rng rng(0x4157);
    for (std::size_t len : {2u, 3u, 17u, 1000u, 5000u})
    for (bool extremes : {true, false}) {
        // Random bit widths, so every bucket gets visits, with or
        // without 0 and UINT64_MAX (which pin min and max).
        std::vector<std::uint64_t> values;
        if (extremes)
            values = {0, ~std::uint64_t{0}};
        while (values.size() < len)
            values.push_back(rng.next() >> rng.below(64));

        Histogram h;
        std::array<std::uint64_t, Histogram::bucketCount> buckets{};
        std::uint64_t sum = 0;
        for (std::uint64_t v : values) {
            h.sample(v);
            ++buckets[naiveBucket(v)];
            sum += v; // wraps mod 2^64, as Histogram's does
        }
        std::vector<std::uint64_t> sorted = values;
        std::sort(sorted.begin(), sorted.end());

        EXPECT_EQ(h.count(), values.size()) << len;
        EXPECT_EQ(h.total(), sum) << len;
        EXPECT_EQ(h.min(), sorted.front()) << len;
        EXPECT_EQ(h.max(), sorted.back()) << len;
        for (std::size_t i = 0; i < Histogram::bucketCount; ++i)
            EXPECT_EQ(h.bucket(i), buckets[i]) << len << " bucket " << i;
        for (double p : {50.0, 90.0, 99.0, 99.9})
            EXPECT_DOUBLE_EQ(h.percentile(p), naivePercentile(sorted, p))
                << len << " values at p" << p;
    }
}

TEST(ProfHistogram, ExactMomentsAndPercentilesOnKnownInput)
{
    Histogram h;
    for (std::uint64_t v = 1; v <= 8; ++v)
        h.sample(v);
    EXPECT_EQ(h.count(), 8u);
    EXPECT_EQ(h.total(), 36u);
    EXPECT_EQ(h.min(), 1u);
    EXPECT_EQ(h.max(), 8u);
    EXPECT_DOUBLE_EQ(h.mean(), 4.5);
    // Rank 4 (p50) opens bucket [4,7]; ranks 8 (p90, p99) land on the
    // max.
    EXPECT_DOUBLE_EQ(h.p50(), 4.0);
    EXPECT_DOUBLE_EQ(h.p90(), 8.0);
    EXPECT_DOUBLE_EQ(h.p99(), 8.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 8.0);
}

TEST(ProfHistogram, ConstantSamplesReportExactValue)
{
    // Bucket bounds clamp to observed min/max, so a constant stream
    // reports the constant, not a bucket boundary.
    Histogram h;
    for (int i = 0; i < 10; ++i)
        h.sample(42);
    EXPECT_DOUBLE_EQ(h.p50(), 42.0);
    EXPECT_DOUBLE_EQ(h.p90(), 42.0);
    EXPECT_DOUBLE_EQ(h.p99(), 42.0);
}

TEST(ProfHistogram, EmptyAndReset)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.p99(), 0.0);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);

    h.sample(7);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.total(), 0u);
    EXPECT_DOUBLE_EQ(h.p50(), 0.0);
}

TEST_F(ProfilerTest, NestedScopesBuildTree)
{
    Profiler &p = Profiler::instance();
    p.enable();
    {
        ProfScope outer("syscall");
        p.addCycles(5);
        {
            ProfScope inner("body");
            p.addLeafCycles("base", 7);
        }
    }
    p.disable();

    const ProfNode *syscall = p.root().find("syscall");
    ASSERT_NE(syscall, nullptr);
    EXPECT_EQ(syscall->selfCycles, 5u);
    EXPECT_EQ(syscall->totalCycles(), 12u);
    const ProfNode *body = syscall->find("body");
    ASSERT_NE(body, nullptr);
    const ProfNode *base = body->find("base");
    ASSERT_NE(base, nullptr);
    EXPECT_EQ(base->selfCycles, 7u);
    EXPECT_EQ(base->entries, 1u);

    EXPECT_EQ(p.attributedCycles(), 12u);
    EXPECT_EQ(p.sumOfLeaves(), 12u);
    // Completed spans sampled their inclusive cycles.
    EXPECT_EQ(syscall->spans.count(), 1u);
    EXPECT_EQ(syscall->spans.total(), 12u);
    EXPECT_EQ(body->spans.count(), 1u);
    EXPECT_EQ(body->spans.total(), 7u);
}

TEST_F(ProfilerTest, ReentrantScopeNests)
{
    Profiler &p = Profiler::instance();
    p.enable();
    {
        ProfScope a("lock");
        p.addCycles(1);
        ProfScope b("lock"); // same name: a child, not a merge
        p.addCycles(2);
    }
    p.disable();

    const ProfNode *outer = p.root().find("lock");
    ASSERT_NE(outer, nullptr);
    const ProfNode *inner = outer->find("lock");
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(outer->selfCycles, 1u);
    EXPECT_EQ(inner->selfCycles, 2u);
    EXPECT_EQ(p.attributedCycles(), 3u);
}

TEST_F(ProfilerTest, ExceptionUnwindsScopes)
{
    Profiler &p = Profiler::instance();
    p.enable();
    try {
        ProfScope a("outer");
        ProfScope b("inner");
        p.addCycles(3);
        throw std::runtime_error("boom");
    } catch (const std::runtime_error &) {
    }
    // Both scopes popped during unwind: attribution lands at the root
    // again, not inside a dangling node.
    p.addCycles(4);
    p.disable();
    EXPECT_EQ(p.root().selfCycles, 4u);
    EXPECT_EQ(p.attributedCycles(), 7u);
    EXPECT_EQ(p.sumOfLeaves(), 7u);
}

TEST_F(ProfilerTest, ClearWithLiveScopeIsSafe)
{
    Profiler &p = Profiler::instance();
    p.enable();
    {
        ProfScope a("stale");
        p.addCycles(1);
        p.enable(); // clears the tree under the live scope
        p.addCycles(2);
    } // destructor must not touch the freed node
    p.disable();
    EXPECT_EQ(p.root().find("stale"), nullptr);
    EXPECT_EQ(p.attributedCycles(), 2u);
}

TEST_F(ProfilerTest, PauseStopsAttribution)
{
    Profiler &p = Profiler::instance();
    p.enable();
    p.addCycles(5);
    {
        ObserverPause pause;
        p.addCycles(100); // helper-simulation noise
        EXPECT_FALSE(p.enabled());
    }
    p.addCycles(6);
    p.disable();
    EXPECT_EQ(p.attributedCycles(), 11u);
}

TEST_F(ProfilerTest, DisabledProfilerAttributesNothing)
{
    Profiler &p = Profiler::instance();
    {
        ProfScope a("ignored");
        p.addCycles(99);
        p.addLeafCycles("leaf", 99);
    }
    EXPECT_EQ(p.attributedCycles(), 0u);
    EXPECT_TRUE(p.root().children.empty());
}

TEST_F(ProfilerTest, CollapsedStacksEmitSelfCycles)
{
    Profiler &p = Profiler::instance();
    p.enable();
    {
        ProfScope a("syscall");
        p.addLeafCycles("base", 10);
    }
    p.disable();
    std::string folded = p.collapsedStacks("R2000");
    EXPECT_NE(folded.find("R2000;syscall;base 10"), std::string::npos);
}

// ---- the acceptance invariant ------------------------------------

TEST_F(ProfilerTest, NullSyscallFullyAttributedOnDs3100)
{
    // DECstation 3100 (MIPS R2000): every cycle of the null system
    // call has a home in the attribution tree.
    ProfiledPrimitiveRun run = profilePrimitive(
        makeMachine(MachineId::R2000), Primitive::NullSyscall, 4);
    EXPECT_GT(run.totalCycles, 0u);
    EXPECT_EQ(run.totalCycles, run.attributedCycles);
    EXPECT_TRUE(run.complete());
    // And the per-phase totals re-sum to the whole.
    Cycles phases = run.phaseCycles(PhaseKind::KernelEntryExit) +
                    run.phaseCycles(PhaseKind::CallPrep) +
                    run.phaseCycles(PhaseKind::CCallReturn) +
                    run.phaseCycles(PhaseKind::Body);
    EXPECT_EQ(phases, run.totalCycles);
}

TEST_F(ProfilerTest, NullSyscallFullyAttributedOnSparcstation)
{
    // SPARCstation 1+: register-window traffic included.
    ProfiledPrimitiveRun run = profilePrimitive(
        makeMachine(MachineId::SPARC), Primitive::NullSyscall, 4);
    EXPECT_GT(run.totalCycles, 0u);
    EXPECT_TRUE(run.complete());
}

TEST_F(ProfilerTest, EveryTable1MachineAttributesEveryPrimitive)
{
    for (const MachineDesc &m : table1Machines()) {
        for (Primitive prim : allPrimitives) {
            ProfiledPrimitiveRun run = profilePrimitive(m, prim, 2);
            EXPECT_GT(run.totalCycles, 0u)
                << machineSlug(m.id) << "/" << primitiveSlug(prim);
            EXPECT_EQ(run.totalCycles, run.attributedCycles)
                << machineSlug(m.id) << "/" << primitiveSlug(prim)
                << " leaked "
                << (run.totalCycles - run.attributedCycles)
                << " cycles";
        }
    }
}

} // namespace
