/**
 * @file
 * The tools' declarative flag parser (sim/cli.hh): every value kind
 * accepts its valid values and rejects bad ones with one line naming
 * the flag, leaving the destination untouched; the generated usage
 * lists the table in order; optional values, repeatable flags,
 * positionals and leading commands behave as the tools rely on; and a
 * seeded argv fuzz over a table of every kind either parses or yields
 * exactly one message line. Also the shared file helpers.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "arch/machines.hh"
#include "sim/cli.hh"

using namespace aosd;

namespace
{

/** parse() over `args`, with "prog" as argv[0]. */
CliParse
run(const Cli &cli, const std::vector<std::string> &args)
{
    std::vector<const char *> argv = {"prog"};
    for (const std::string &a : args)
        argv.push_back(a.c_str());
    return cli.parse(static_cast<int>(argv.size()), argv.data());
}

/** A rejection: exactly one line, from "prog", naming `flag`. */
void
expectRejected(const CliParse &r, const std::string &flag)
{
    EXPECT_FALSE(r.help);
    ASSERT_FALSE(r.error.empty()) << "accepted, wanted " << flag;
    EXPECT_EQ(r.error.find('\n'), std::string::npos) << r.error;
    EXPECT_EQ(r.error.rfind("prog: ", 0), 0u) << r.error;
    EXPECT_NE(r.error.find(flag), std::string::npos) << r.error;
}

TEST(Cli, WholeNumberAcceptsItsRangeOnly)
{
    std::size_t n = 42;
    Cli cli;
    cli.whole("--n", "N", "a count", n, 1, 10);
    EXPECT_TRUE(run(cli, {"--n", "1"}).ok());
    EXPECT_EQ(n, 1u);
    EXPECT_TRUE(run(cli, {"--n", "0xa"}).ok());
    EXPECT_EQ(n, 10u);
    for (const char *bad : {"0", "11", "-1", "abc", "", " 5", "5x", "1e3",
                            "99999999999999999999"}) {
        CliParse r = run(cli, {"--n", bad});
        expectRejected(r, "--n");
        EXPECT_NE(r.error.find("a whole number from 1 to 10"),
                  std::string::npos)
            << r.error;
        EXPECT_EQ(n, 10u) << bad;
    }
}

TEST(Cli, WholeNumberDefaultsToTheDestinationsRange)
{
    std::uint64_t big = 0;
    unsigned small = 7;
    Cli cli;
    cli.whole("--big", "N", "", big).whole("--small", "N", "", small);
    EXPECT_TRUE(run(cli, {"--big", "18446744073709551615"}).ok());
    EXPECT_EQ(big, UINT64_MAX);
    expectRejected(run(cli, {"--small", "4294967296"}), "--small");
    EXPECT_EQ(small, 7u);
    EXPECT_TRUE(run(cli, {"--small", "4294967295"}).ok());
    EXPECT_EQ(small, UINT32_MAX);
}

TEST(Cli, NumberAcceptsItsRangeOnly)
{
    double pct = 95;
    double any = 0;
    Cli cli;
    cli.number("--pct", "PCT", "gate", pct, 0, 100)
        .number("--any", "X", "anything finite", any);
    EXPECT_TRUE(run(cli, {"--pct", "99.999"}).ok());
    EXPECT_DOUBLE_EQ(pct, 99.999);
    EXPECT_TRUE(run(cli, {"--any", "-1e30"}).ok());
    EXPECT_DOUBLE_EQ(any, -1e30);
    for (const char *bad : {"-1", "101", "-1000", "abc", "nan", "inf", "",
                            "1e999", "5%"}) {
        CliParse r = run(cli, {"--pct", bad});
        expectRejected(r, "--pct");
        EXPECT_NE(r.error.find("a number from 0 to 100"),
                  std::string::npos)
            << r.error;
        EXPECT_DOUBLE_EQ(pct, 99.999) << bad;
    }
    expectRejected(run(cli, {"--any", "nan"}), "--any");
}

TEST(Cli, NumberListSkipsEmptyItemsButNotJunk)
{
    std::vector<double> levels = {0.3, 0.6};
    Cli cli;
    cli.numbers("--levels", "CSV", "load levels", levels);
    EXPECT_TRUE(run(cli, {"--levels", "1,,4,16,"}).ok());
    EXPECT_EQ(levels, (std::vector<double>{1, 4, 16}));
    for (const char *bad : {"", ",", "0.5,abc", "1, 2", "nan"}) {
        expectRejected(run(cli, {"--levels", bad}), "--levels");
        EXPECT_EQ(levels, (std::vector<double>{1, 4, 16})) << bad;
    }
}

TEST(Cli, ChoiceTakesOneOfTheNames)
{
    enum class Mode { Open, Closed };
    Mode mode = Mode::Open;
    Cli cli;
    cli.choice("--mode", "loop kind", mode,
               {{"open", Mode::Open}, {"closed", Mode::Closed}});
    EXPECT_TRUE(run(cli, {"--mode", "closed"}).ok());
    EXPECT_EQ(mode, Mode::Closed);
    for (const char *bad : {"sideways", "", "Open", "open "}) {
        CliParse r = run(cli, {"--mode", bad});
        expectRejected(r, "--mode");
        EXPECT_NE(r.error.find("one of open|closed"), std::string::npos)
            << r.error;
        EXPECT_EQ(mode, Mode::Closed);
    }
    EXPECT_NE(cli.usage("prog").find("--mode open|closed"),
              std::string::npos);
}

TEST(Cli, MachineListNamesEveryValidSlug)
{
    std::vector<MachineId> machines;
    Cli cli;
    cli.machines("machines", machines);
    EXPECT_TRUE(run(cli, {"--machines", "R3000,SPARC,"}).ok());
    EXPECT_EQ(machines,
              (std::vector<MachineId>{MachineId::R3000, MachineId::SPARC}));
    // Repeatable: a second list appends, in order.
    EXPECT_TRUE(run(cli, {"--machines", "CVAX"}).ok());
    EXPECT_EQ(machines.back(), MachineId::CVAX);
    std::vector<MachineId> before = machines;
    for (const char *bad : {"VAX", "VAX9000", "R3000,NOPE", ",", "",
                            "r3000"}) {
        CliParse r = run(cli, {"--machines", bad});
        expectRejected(r, "--machines");
        for (const MachineDesc &m : allMachines())
            EXPECT_NE(r.error.find(machineSlug(m.id)), std::string::npos)
                << r.error;
        EXPECT_NE(r.error.find(std::string("'") + bad + "'"),
                  std::string::npos)
            << r.error;
        EXPECT_EQ(machines, before) << bad;
    }
}

TEST(Cli, KeyValueWantsBothSidesAndKeepsOrder)
{
    std::vector<std::pair<std::string, std::string>> pairs;
    Cli cli;
    cli.keyValue("--kv", "KEY=VALUE", "pairs", "KEY=VALUE",
                 [&pairs](const std::string &k, const std::string &v) {
                     if (v == "reject")
                         return false;
                     pairs.emplace_back(k, v);
                     return true;
                 });
    EXPECT_TRUE(run(cli, {"--kv", "b=2", "--kv", "a=1=x"}).ok());
    ASSERT_EQ(pairs.size(), 2u);
    EXPECT_EQ(pairs[0], std::make_pair(std::string("b"), std::string("2")));
    EXPECT_EQ(pairs[1],
              std::make_pair(std::string("a"), std::string("1=x")));
    for (const char *bad : {"=3", "p999=", "noequals", "", "=", "k=reject"})
        expectRejected(run(cli, {"--kv", bad}), "--kv");
    EXPECT_EQ(pairs.size(), 2u);
}

TEST(Cli, JobsAndRepsKeepTheirRules)
{
    unsigned jobs = 3, reps = 16;
    Cli cli;
    cli.jobs(jobs).reps("repetitions", reps);
    EXPECT_TRUE(run(cli, {"--jobs", "8", "--reps", "0"}).ok());
    EXPECT_EQ(jobs, 8u);
    EXPECT_EQ(reps, 1u);
    EXPECT_TRUE(run(cli, {"--jobs", "0"}).ok());
    EXPECT_EQ(jobs, ParallelRunner::defaultJobs());
    CliParse r = run(cli, {"--jobs", "1025"});
    expectRejected(r, "--jobs");
    EXPECT_NE(r.error.find("a whole number from 0 to 1024, got '1025'"),
              std::string::npos)
        << r.error;
    expectRejected(run(cli, {"--reps", "-1"}), "--reps");
    EXPECT_EQ(reps, 1u);
}

TEST(Cli, OptionalValueTakesTheNextTokenUnlessItIsAFlag)
{
    bool json = false;
    std::string path = "unset";
    unsigned jobs = 1;
    Cli cli;
    cli.optionalText("--json", "path", "json out", json, path).jobs(jobs);

    EXPECT_TRUE(run(cli, {"--json"}).ok());
    EXPECT_TRUE(json);
    EXPECT_EQ(path, "unset");

    json = false;
    EXPECT_TRUE(run(cli, {"--json", "--jobs", "2"}).ok());
    EXPECT_TRUE(json);
    EXPECT_EQ(path, "unset");
    EXPECT_EQ(jobs, 2u);

    json = false;
    expectRejected(run(cli, {"--json", "-x"}), "-x");
    EXPECT_TRUE(json);
    EXPECT_EQ(path, "unset");

    EXPECT_TRUE(run(cli, {"--json", "out.json"}).ok());
    EXPECT_EQ(path, "out.json");
    EXPECT_NE(cli.usage("prog").find("--json [path]"), std::string::npos);
}

TEST(Cli, SwitchesTextAndRepeatableText)
{
    bool all = false;
    std::string last;
    std::vector<std::string> traffic;
    Cli cli;
    cli.toggle("--all", "everything", all)
        .text("--out", "DIR", "output", last)
        .text("--traffic", "path", "sweeps", traffic);
    EXPECT_TRUE(run(cli, {"--traffic", "b.json", "--out", "x", "--all",
                          "--traffic", "a.json", "--out", "--y"})
                    .ok());
    EXPECT_TRUE(all);
    EXPECT_EQ(last, "--y");
    EXPECT_EQ(traffic, (std::vector<std::string>{"b.json", "a.json"}));
}

TEST(Cli, UnknownFlagsMissingValuesAndStrayArgumentsAreOneLine)
{
    unsigned jobs = 1;
    std::string trace;
    Cli cli;
    cli.text("--trace", "path", "timeline", trace).jobs(jobs);

    CliParse r = run(cli, {"--x"});
    expectRejected(r, "--x");
    EXPECT_EQ(r.error, "prog: unknown flag '--x'");
    expectRejected(run(cli, {"--jsn"}), "--jsn");
    expectRejected(run(cli, {"-"}), "'-'");
    expectRejected(run(cli, {"stray"}), "stray");
    // An unknown flag followed by a value: the one line names the
    // flag, not the value as a stray argument.
    r = run(cli, {"--stats", "x"});
    expectRejected(r, "--stats");
    EXPECT_EQ(r.error, "prog: unknown flag '--stats'");

    r = run(cli, {"--trace"});
    expectRejected(r, "--trace");
    EXPECT_NE(r.error.find("got nothing"), std::string::npos) << r.error;
    expectRejected(run(cli, {"--trace", "t.json", "--jobs"}), "--jobs");
    EXPECT_EQ(trace, "t.json");

    // Control characters cannot split the error line.
    r = run(cli, {"--a\nb"});
    expectRejected(r, "unknown flag");
    r = run(cli, {"--jobs", "1\n2"});
    expectRejected(r, "--jobs");
}

TEST(Cli, HelpStopsParsing)
{
    unsigned jobs = 1;
    Cli cli;
    cli.jobs(jobs);
    EXPECT_TRUE(run(cli, {"--help"}).help);
    EXPECT_TRUE(run(cli, {"-h", "--bogus"}).help);
    EXPECT_TRUE(run(cli, {"--jobs", "2", "-h"}).help);
    // A bad token before --help is still the answer.
    EXPECT_FALSE(run(cli, {"--jobs", "x", "--help"}).error.empty());
}

TEST(Cli, PositionalsAreCappedAndNeverFlags)
{
    std::vector<std::string> files;
    double tol = 0.01;
    Cli cli("[options] old.json new.json");
    cli.number("--tol", "REL", "tolerance", tol, 0).positionals(files, 2);
    EXPECT_TRUE(run(cli, {"old.json", "--tol", "0.05", "new.json"}).ok());
    EXPECT_EQ(files, (std::vector<std::string>{"old.json", "new.json"}));
    EXPECT_DOUBLE_EQ(tol, 0.05);

    files.clear();
    expectRejected(run(cli, {"--bogus", "x.json"}), "--bogus");
    EXPECT_TRUE(files.empty());
    files.clear();
    expectRejected(run(cli, {"a", "b", "c"}), "'c'");
    files.clear();
    EXPECT_TRUE(run(cli, {"-", ""}).ok());
    EXPECT_EQ(files, (std::vector<std::string>{"-", ""}));
}

TEST(Cli, LeadingCommandComesFirst)
{
    std::string command, db;
    unsigned top = 20;
    Cli cli("<command> --db path [options]");
    cli.command(command, {{"list", "one line per record"},
                          {"check", "flag regressions"}})
        .text("--db", "path", "database", db)
        .whole("--top", "N", "flags printed", top);

    EXPECT_TRUE(run(cli, {"check", "--db", "x.jsonl", "--top", "3"}).ok());
    EXPECT_EQ(command, "check");
    EXPECT_EQ(db, "x.jsonl");
    EXPECT_EQ(top, 3u);

    CliParse r = run(cli, {"bogus", "--db", "x.jsonl"});
    expectRejected(r, "'bogus'");
    EXPECT_NE(r.error.find("list, check"), std::string::npos) << r.error;
    EXPECT_EQ(command, "check");
    expectRejected(run(cli, {}), "list, check");
    expectRejected(run(cli, {"--db", "x.jsonl", "list"}), "'--db'");
    expectRejected(run(cli, {"list", "check"}), "'check'");
    EXPECT_TRUE(run(cli, {"help"}).help);
    EXPECT_TRUE(run(cli, {"--help"}).help);
    EXPECT_TRUE(run(cli, {"list", "-h"}).help);

    std::string usage = cli.usage("prog");
    EXPECT_EQ(usage.rfind("usage: prog <command> --db path [options]\n", 0),
              0u);
    EXPECT_LT(usage.find("  list "), usage.find("  check "));
    EXPECT_LT(usage.find("  check "), usage.find("  --db path"));
}

TEST(Cli, UsageListsEveryFlagInTableOrder)
{
    bool on = false, json = false;
    std::string s;
    std::vector<std::string> many;
    std::size_t n = 0;
    double x = 0;
    std::vector<double> xs;
    std::vector<MachineId> ms;
    unsigned jobs = 1, reps = 1;
    int mode = 0;
    Cli cli("[options] file");
    cli.toggle("--on", "a switch", on)
        .optionalText("--json", "path", "maybe a path", json, s)
        .text("--many", "path", "more paths", many)
        .whole("--n", "N", "a count", n)
        .number("--x", "X", "a number", x)
        .numbers("--xs", "CSV", "numbers", xs)
        .choice("--mode", "a choice", mode, {{"a", 0}, {"b", 1}})
        .machines("machines", ms)
        .keyValue("--kv", "K=V", "pairs", "K=V",
                  [](const std::string &, const std::string &) {
                      return true;
                  })
        .jobs(jobs)
        .reps("repetitions", reps);
    std::string usage = cli.usage("prog");
    EXPECT_EQ(usage.rfind("usage: prog [options] file\n", 0), 0u);
    std::size_t at = 0;
    for (const char *row :
         {"--on ", "--json [path]", "--many path", "--n N", "--x X",
          "--xs CSV", "--mode a|b", "--machines SLUG[,SLUG...]",
          "--kv K=V", "--jobs N", "--reps N", "-h, --help"}) {
        std::size_t pos = usage.find(std::string("  ") + row, at);
        ASSERT_NE(pos, std::string::npos) << row << "\n" << usage;
        at = pos;
    }
    EXPECT_NE(usage.find("more paths (repeatable)"), std::string::npos);
    for (std::size_t start = 0, end = 0; start < usage.size();
         start = end + 1) {
        end = usage.find('\n', start);
        EXPECT_LE(end - start, 79u) << usage.substr(start, end - start);
    }
}

// Every argv built from the table below either parses or yields exactly
// one message line; no token sequence throws or aborts.
TEST(Cli, SeededArgvFuzzParsesOrGivesOneLine)
{
    const std::vector<std::string> pool = {
        "--on", "--json", "--many", "--n", "--x", "--xs", "--mode",
        "--machines", "--kv", "--jobs", "--reps", "--help", "-h", "--",
        "-", "--jo", "--ma", "--j", "-j", "--on=1", "", " ", "abc", "0",
        "1", "-1", "7", "0x10", "1e999", "nan", "inf", "-0", "1.5",
        "99999999999999999999", "a", "b", "A", "R3000", "SPARC,CVAX",
        "R3000,VAX", ",", ",,", "VAX", "k=v", "=", "=v", "k=", "5%",
        "file.json", "\n", "--x\ny", "\x01", "\x7f", "1,2,,3", "1, 2",
        "list", "check", "help", "bogus"};

    std::mt19937_64 rng(0x5eedc11);
    std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
    std::uniform_int_distribution<int> length(0, 8);
    std::uniform_int_distribution<int> truncate(0, 9);
    int parsed = 0, rejected = 0, helped = 0;
    for (int iter = 0; iter < 20000; ++iter) {
        bool on = false, json = false;
        std::string s, command;
        std::vector<std::string> many, files;
        std::size_t n = 0;
        double x = 0;
        std::vector<double> xs;
        std::vector<MachineId> ms;
        unsigned jobs = 1, reps = 1;
        int mode = 0;
        Cli cli;
        if (iter % 3 == 0)
            cli.command(command, {{"list", ""}, {"check", ""}});
        cli.toggle("--on", "", on)
            .optionalText("--json", "path", "", json, s)
            .text("--many", "path", "", many)
            .whole("--n", "N", "", n, 1, 1000)
            .number("--x", "X", "", x, 0, 100)
            .numbers("--xs", "CSV", "", xs)
            .choice("--mode", "", mode, {{"a", 0}, {"b", 1}})
            .machines("", ms)
            .keyValue("--kv", "K=V", "", "K=V",
                      [](const std::string &, const std::string &v) {
                          return v != "v";
                      })
            .jobs(jobs)
            .reps("", reps)
            .positionals(files, iter % 2);

        std::vector<std::string> args;
        for (int k = length(rng); k > 0; --k) {
            std::string tok = pool[pick(rng)];
            if (truncate(rng) == 0 && tok.size() > 1)
                tok.resize(tok.size() / 2);
            args.push_back(tok);
        }
        CliParse r;
        ASSERT_NO_THROW(r = run(cli, args));
        if (r.help) {
            ++helped;
            EXPECT_TRUE(r.error.empty());
        } else if (r.error.empty()) {
            ++parsed;
        } else {
            ++rejected;
            ASSERT_EQ(r.error.find('\n'), std::string::npos) << r.error;
            ASSERT_EQ(r.error.rfind("prog: ", 0), 0u) << r.error;
        }
    }
    // The pool must exercise every outcome.
    EXPECT_GT(parsed, 1000);
    EXPECT_GT(rejected, 1000);
    EXPECT_GT(helped, 100);
}

TEST(CliFiles, WriteOutputAndReadJsonFile)
{
    std::string path = ::testing::TempDir() + "aosd_cli_test.json";
    ASSERT_TRUE(writeOutput(path, "{\"a\": [1, 2]}", "test"));
    Json doc;
    ASSERT_TRUE(readJsonFile(path, doc));
    EXPECT_EQ(doc.at("a").size(), 2u);

    const Json *slot = nullptr;
    Json optional;
    EXPECT_TRUE(readJsonFile("", optional, slot));
    EXPECT_EQ(slot, nullptr);
    EXPECT_TRUE(readJsonFile(path, optional, slot));
    EXPECT_EQ(slot, &optional);

    ASSERT_TRUE(writeFile(path, "{\"a\": [1,"));
    EXPECT_FALSE(readJsonFile(path, doc));
    EXPECT_FALSE(readJsonFile(path + ".missing", doc));
    EXPECT_FALSE(writeFile(::testing::TempDir() + "no/such/dir/x", "x"));
    std::remove(path.c_str());
}

} // namespace
