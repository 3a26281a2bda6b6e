/**
 * @file
 * The tools' numeric-flag parsers: a value is accepted only when the
 * whole token is a number of the right kind. Signs on whole numbers,
 * leading or trailing whitespace, junk, overflow, inf and nan are all
 * rejected, and a rejected value leaves the output untouched.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "sim/numeric_flags.hh"
#include "sim/parallel/parallel_runner.hh"

using namespace aosd;

namespace
{

/** Inputs no numeric flag may accept. */
const char *const junk[] = {"-1", "abc", "", " 5", "5 ", "1e999", "nan",
                            "inf", "5x", "+"};

TEST(NumericFlags, ParseUintAcceptsWholeDecimalsAndHex)
{
    std::uint64_t v = 99;
    EXPECT_TRUE(parseUint("0", v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseUint("7", v));
    EXPECT_EQ(v, 7u);
    EXPECT_TRUE(parseUint("250000", v));
    EXPECT_EQ(v, 250000u);
    EXPECT_TRUE(parseUint("0x10", v));
    EXPECT_EQ(v, 16u);
    EXPECT_TRUE(parseUint("18446744073709551615", v));
    EXPECT_EQ(v, UINT64_MAX);
}

TEST(NumericFlags, ParseUintRejectsSignsJunkAndOverflow)
{
    for (const char *s : junk) {
        std::uint64_t v = 42;
        EXPECT_FALSE(parseUint(s, v)) << '"' << s << '"';
        EXPECT_EQ(v, 42u) << '"' << s << '"';
    }
    std::uint64_t v = 42;
    EXPECT_FALSE(parseUint("18446744073709551616", v));
    EXPECT_FALSE(parseUint("1.5", v));
    EXPECT_FALSE(parseUint("+5", v));
    EXPECT_EQ(v, 42u);
}

TEST(NumericFlags, ParseNumberAcceptsFiniteNumbers)
{
    double v = 0;
    EXPECT_TRUE(parseNumber("95", v));
    EXPECT_EQ(v, 95.0);
    EXPECT_TRUE(parseNumber("99.999", v));
    EXPECT_EQ(v, 99.999);
    EXPECT_TRUE(parseNumber("-1", v));
    EXPECT_EQ(v, -1.0);
    EXPECT_TRUE(parseNumber("1e3", v));
    EXPECT_EQ(v, 1000.0);
    EXPECT_TRUE(parseNumber("0x10", v));
    EXPECT_EQ(v, 16.0);
    // Far beyond a 64-bit integer, but a finite double.
    EXPECT_TRUE(parseNumber("18446744073709551616", v));
    EXPECT_EQ(v, 18446744073709551616.0);
}

TEST(NumericFlags, ParseNumberRejectsJunkInfAndNan)
{
    for (const char *s :
         {"abc", "", " 5", "5 ", "1e999", "-1e999", "nan", "inf", "5x"}) {
        double v = 42;
        EXPECT_FALSE(parseNumber(s, v)) << '"' << s << '"';
        EXPECT_EQ(v, 42.0) << '"' << s << '"';
    }
}

TEST(NumericFlags, JobsKeepZeroAsAllCoresAndCapAt1024)
{
    unsigned jobs = 7;
    EXPECT_TRUE(parseJobs("0", jobs));
    EXPECT_EQ(jobs, ParallelRunner::defaultJobs());
    EXPECT_TRUE(parseJobs("1", jobs));
    EXPECT_EQ(jobs, 1u);
    EXPECT_TRUE(parseJobs("1024", jobs));
    EXPECT_EQ(jobs, 1024u);
    jobs = 7;
    for (const char *s : junk)
        EXPECT_FALSE(parseJobs(s, jobs)) << '"' << s << '"';
    EXPECT_FALSE(parseJobs("1025", jobs));
    EXPECT_FALSE(parseJobs("4294967295", jobs));
    EXPECT_EQ(jobs, 7u);
}

TEST(NumericFlags, RepsKeepZeroAsOne)
{
    unsigned reps = 7;
    EXPECT_TRUE(parseReps("0", reps));
    EXPECT_EQ(reps, 1u);
    EXPECT_TRUE(parseReps("32", reps));
    EXPECT_EQ(reps, 32u);
    EXPECT_TRUE(parseReps("4294967295", reps));
    EXPECT_EQ(reps, 4294967295u);
    reps = 7;
    for (const char *s : junk)
        EXPECT_FALSE(parseReps(s, reps)) << '"' << s << '"';
    EXPECT_FALSE(parseReps("4294967296", reps));
    EXPECT_EQ(reps, 7u);
}

TEST(NumericFlags, CountTakesAnyWholeNumber)
{
    std::size_t n = 7;
    EXPECT_TRUE(parseCount("0", n));
    EXPECT_EQ(n, 0u);
    EXPECT_TRUE(parseCount("10", n));
    EXPECT_EQ(n, 10u);
    n = 7;
    for (const char *s : junk)
        EXPECT_FALSE(parseCount(s, n)) << '"' << s << '"';
    EXPECT_EQ(n, 7u);
}

} // namespace
