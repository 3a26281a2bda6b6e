/**
 * @file
 * One declarative flag parser for the command-line tools.
 *
 * A tool declares its flags as a table, one call per flag giving the
 * name, the metavar, the help line and the destination. parse() walks
 * argv against the table and usage() lists the table in order. Bad
 * input is rejected with one line naming the bad token, and the tools
 * exit 2 on it:
 *
 *   <argv0>: <flag> wants <what>, got '<value>'
 *   <argv0>: unknown flag '<flag>'
 *
 * Values are checked by the typed kinds below, which build on
 * sim/numeric_flags.hh; a rejected value leaves its destination
 * untouched. Checks across flags stay in the tools.
 *
 * The file also holds the tools' file helpers: writeFile(),
 * writeOutput() and readJsonFile().
 */

#ifndef AOSD_SIM_CLI_HH
#define AOSD_SIM_CLI_HH

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "arch/machine_desc.hh"
#include "sim/json.hh"
#include "sim/numeric_flags.hh"

namespace aosd
{

/** One row of a tool's flag table. */
struct CliFlag
{
    enum class Takes { Nothing, Value, OptionalValue };

    /** "--jobs". */
    std::string name;
    /** "N"; empty for a switch. */
    std::string metavar;
    std::string help;
    Takes takes = Takes::Value;
    /** What the error line says the flag wants. */
    std::string want;
    /** Set true whenever the flag appears (switches and optional
     *  values). */
    bool *seen = nullptr;
    /** Stores a value; false rejects it. */
    std::function<bool(const std::string &)> set;
};

/** What Cli::parse() made of a command line. */
struct CliParse
{
    /** --help or -h: the tool prints usage() and exits 0. */
    bool help = false;
    /** One line without a newline; non-empty means exit 2. */
    std::string error;

    bool ok() const { return !help && error.empty(); }
};

/** A tool's flag table. Each kind appends one row and returns *this.
 *  A flag given twice keeps its last value unless its kind is
 *  repeatable. The table refers to its destinations: they must
 *  outlive it. */
class Cli
{
  public:
    /** `synopsis` follows "usage: <argv0> " on the first usage line. */
    explicit Cli(std::string s = "[options]") : synopsis(std::move(s)) {}

    /** A value checked and stored by `set`. */
    Cli &value(const std::string &name, const std::string &metavar,
               const std::string &help, const std::string &want,
               std::function<bool(const std::string &)> set);

    /** A switch: sets `on`. */
    Cli &toggle(const std::string &name, const std::string &help,
                bool &on);
    /** Any text. */
    Cli &text(const std::string &name, const std::string &metavar,
              const std::string &help, std::string &dst);
    /** Repeatable text, appended in order. */
    Cli &text(const std::string &name, const std::string &metavar,
              const std::string &help, std::vector<std::string> &dst);
    /** `--name [VALUE]`: sets `given`; the next token is the value
     *  unless it starts with '-' (or there is none). */
    Cli &optionalText(const std::string &name, const std::string &metavar,
                      const std::string &help, bool &given,
                      std::string &dst);
    /** Repeatable KEY=VALUE with both sides non-empty; `add_pair`
     *  stores the pair and may reject it. */
    Cli &keyValue(const std::string &name, const std::string &metavar,
                  const std::string &help, const std::string &want,
                  std::function<bool(const std::string &,
                                     const std::string &)>
                      add_pair);

    /** A whole number (parseUint()) in [lo, hi]. */
    template <class T>
    Cli &whole(const std::string &name, const std::string &metavar,
               const std::string &help, T &dst, std::uint64_t lo = 0,
               std::uint64_t hi = std::numeric_limits<T>::max())
    {
        std::string want = "a whole number";
        if (hi != UINT64_MAX)
            want += " from " + std::to_string(lo) + " to " +
                    std::to_string(hi);
        else if (lo != 0)
            want += " >= " + std::to_string(lo);
        return value(name, metavar, help, want,
                     [&dst, lo, hi](const std::string &v) {
                         std::uint64_t n = 0;
                         if (!parseUint(v, n) || n < lo || n > hi)
                             return false;
                         dst = static_cast<T>(n);
                         return true;
                     });
    }

    /** A finite number (parseNumber()) in [lo, hi]. */
    Cli &number(const std::string &name, const std::string &metavar,
                const std::string &help, double &dst,
                double lo = -HUGE_VAL, double hi = HUGE_VAL);
    /** At least one comma-separated number; empty items are
     *  skipped. */
    Cli &numbers(const std::string &name, const std::string &metavar,
                 const std::string &help, std::vector<double> &dst);

    /** One of `choices`, listed as the metavar "a|b|c". */
    template <class T>
    Cli &choice(const std::string &name, const std::string &help, T &dst,
                std::vector<std::pair<std::string, T>> choices)
    {
        std::string names;
        for (const auto &c : choices)
            names += (names.empty() ? "" : "|") + c.first;
        return value(name, names, help, "one of " + names,
                     [&dst, choices](const std::string &v) {
                         for (const auto &c : choices) {
                             if (v == c.first) {
                                 dst = c.second;
                                 return true;
                             }
                         }
                         return false;
                     });
    }

    /** Repeatable --machines SLUG[,SLUG...]: at least one
     *  machineSlug() name per flag, appended in order; empty items
     *  are skipped. */
    Cli &machines(const std::string &help, std::vector<MachineId> &dst);
    /** --jobs N (parseJobs()). */
    Cli &jobs(unsigned &dst);
    /** --reps N (parseReps()). */
    Cli &reps(const std::string &help, unsigned &dst);

    /** Up to `max` arguments that are not flags. A token that starts
     *  with '-', other than "-" itself, is always a flag. */
    Cli &positionals(std::vector<std::string> &dst, std::size_t max);
    /** A leading command, one of `commands` (name, help); a leading
     *  "help" asks for the usage. */
    Cli &command(std::string &dst,
                 std::vector<std::pair<std::string, std::string>>
                     commands);

    /** Stores every value of argv[1..] in its destination, in order,
     *  and stops at the first bad token. */
    CliParse parse(int argc, const char *const argv[]) const;
    /** parse() for a tool's main(): prints usage() after --help and
     *  the error line after bad input, both to stderr, and returns the
     *  exit status (0 or 2) when main() must return now. */
    std::optional<int> parseOrExit(int argc, char **argv) const;

    /** The synopsis, the commands, then every flag in table order
     *  with its metavar and help. */
    std::string usage(const std::string &argv0) const;

  private:
    std::string synopsis;
    std::vector<CliFlag> flags;
    std::vector<std::string> *positionalDst = nullptr;
    std::size_t maxPositionals = 0;
    std::string *commandDst = nullptr;
    std::vector<std::pair<std::string, std::string>> commands;
};

/** Writes `content` to `path`; on failure says so on stderr and
 *  returns false. */
bool writeFile(const std::string &path, const std::string &content);

/** Writes `content` to `path` and logs "<label> -> <path>" on
 *  stderr; an empty path means stdout. False after a failed write. */
bool writeOutput(const std::string &path, const std::string &content,
                 const std::string &label);

/** Reads and parses the JSON document at `path`. A missing file or a
 *  parse error is one stderr line and false, so a truncated artifact
 *  fails loudly. */
bool readJsonFile(const std::string &path, Json &out);
/** readJsonFile() for an optional input: an empty path reads nothing;
 *  otherwise `slot` points at `doc`. */
bool readJsonFile(const std::string &path, Json &doc, const Json *&slot);

} // namespace aosd

#endif // AOSD_SIM_CLI_HH
