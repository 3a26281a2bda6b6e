/**
 * @file
 * Whole-token parsing for the command-line tools' numeric flags.
 *
 * `atoi("-1")` cast to unsigned asks for four billion worker threads,
 * and `atof("abc")` is a silent 0. Every numeric flag of the tools
 * goes through these parsers instead: a value must be the whole token,
 * with no sign (for whole numbers), whitespace, junk, overflow, inf or
 * nan, and a tool that gets a bad one prints one line naming the flag
 * (sim/cli.hh) and exits 2.
 */

#ifndef AOSD_SIM_NUMERIC_FLAGS_HH
#define AOSD_SIM_NUMERIC_FLAGS_HH

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "sim/parallel/parallel_runner.hh"

namespace aosd
{

/** Most worker threads a --jobs flag may ask for. */
inline constexpr std::uint64_t maxJobs = 1024;

/** The whole of `s` as an unsigned integer (decimal, 0x hex or 0
 *  octal); false on a sign, junk or overflow. */
inline bool
parseUint(const std::string &s, std::uint64_t &out)
{
    if (s.empty() || !std::isdigit(static_cast<unsigned char>(s[0])))
        return false;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(s.c_str(), &end, 0);
    if (errno == ERANGE || end != s.c_str() + s.size())
        return false;
    out = v;
    return true;
}

/** The whole of `s` as a finite number; false on junk, inf or nan. */
inline bool
parseNumber(const std::string &s, double &out)
{
    if (s.empty() || std::isspace(static_cast<unsigned char>(s[0])))
        return false;
    char *end = nullptr;
    double v = std::strtod(s.c_str(), &end);
    if (end != s.c_str() + s.size() || !std::isfinite(v))
        return false;
    out = v;
    return true;
}

/** parseUint() into a std::size_t: a count, such as --top or --last. */
inline bool
parseCount(const std::string &s, std::size_t &out)
{
    std::uint64_t n = 0;
    if (!parseUint(s, n) || n > SIZE_MAX)
        return false;
    out = static_cast<std::size_t>(n);
    return true;
}

/** A --jobs value: a whole number from 0 to maxJobs, where 0 means
 *  every core (ParallelRunner::defaultJobs()). */
inline bool
parseJobs(const std::string &s, unsigned &jobs)
{
    std::uint64_t n = 0;
    if (!parseUint(s, n) || n > maxJobs)
        return false;
    jobs = n == 0 ? ParallelRunner::defaultJobs()
                  : static_cast<unsigned>(n);
    return true;
}

/** A --reps value: a whole number below 2^32, where 0 means 1. */
inline bool
parseReps(const std::string &s, unsigned &reps)
{
    std::uint64_t n = 0;
    if (!parseUint(s, n) || n > UINT32_MAX)
        return false;
    reps = n == 0 ? 1 : static_cast<unsigned>(n);
    return true;
}

} // namespace aosd

#endif // AOSD_SIM_NUMERIC_FLAGS_HH
