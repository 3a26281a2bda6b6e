#include "sim/cli.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "arch/machines.hh"

namespace aosd
{

namespace
{

/** The comma-separated items of `list`, empty ones skipped. */
std::vector<std::string>
splitList(const std::string &list)
{
    std::vector<std::string> items;
    std::string item;
    std::istringstream in(list);
    while (std::getline(in, item, ','))
        if (!item.empty())
            items.push_back(item);
    return items;
}

/** `s` with control characters shown as '?', so an error line stays
 *  one line whatever argv holds. */
std::string
shown(std::string s)
{
    for (char &c : s)
        if (static_cast<unsigned char>(c) < 0x20 || c == 0x7f)
            c = '?';
    return s;
}

/** Appends one usage row: `left` in the first column, `help` wrapped
 *  into the second. */
void
appendRow(std::string &out, const std::string &left,
          const std::string &help)
{
    constexpr std::size_t col = 24, width = 78;
    std::string line = "  " + left;
    line.resize(std::max(col, line.size() + 2), ' ');
    std::istringstream words(help);
    std::string w;
    for (bool fresh = true; words >> w; fresh = false) {
        if (!fresh && line.size() + 1 + w.size() > width) {
            out += line + "\n";
            line.assign(col, ' ');
        } else if (!fresh) {
            line += ' ';
        }
        line += w;
    }
    out += line + "\n";
}

} // namespace

Cli &
Cli::value(const std::string &name, const std::string &metavar,
           const std::string &help, const std::string &want,
           std::function<bool(const std::string &)> set)
{
    flags.push_back({name, metavar, help, CliFlag::Takes::Value, want,
                     nullptr, std::move(set)});
    return *this;
}

Cli &
Cli::toggle(const std::string &name, const std::string &help, bool &on)
{
    flags.push_back({name, "", help, CliFlag::Takes::Nothing, "", &on, {}});
    return *this;
}

Cli &
Cli::text(const std::string &name, const std::string &metavar,
          const std::string &help, std::string &dst)
{
    return value(name, metavar, help, "a value",
                 [&dst](const std::string &v) {
                     dst = v;
                     return true;
                 });
}

Cli &
Cli::text(const std::string &name, const std::string &metavar,
          const std::string &help, std::vector<std::string> &dst)
{
    return value(name, metavar, help + " (repeatable)", "a value",
                 [&dst](const std::string &v) {
                     dst.push_back(v);
                     return true;
                 });
}

Cli &
Cli::optionalText(const std::string &name, const std::string &metavar,
                  const std::string &help, bool &given, std::string &dst)
{
    text(name, metavar, help, dst);
    flags.back().takes = CliFlag::Takes::OptionalValue;
    flags.back().seen = &given;
    return *this;
}

Cli &
Cli::keyValue(const std::string &name, const std::string &metavar,
              const std::string &help, const std::string &want,
              std::function<bool(const std::string &,
                                 const std::string &)>
                  add_pair)
{
    return value(name, metavar, help + " (repeatable)", want,
                 [add_pair](const std::string &v) {
                     std::size_t eq = v.find('=');
                     return eq != std::string::npos && eq != 0 &&
                            eq + 1 < v.size() &&
                            add_pair(v.substr(0, eq), v.substr(eq + 1));
                 });
}

Cli &
Cli::number(const std::string &name, const std::string &metavar,
            const std::string &help, double &dst, double lo, double hi)
{
    auto fmtNumber = [](double v) {
        std::ostringstream out;
        out << v;
        return out.str();
    };
    std::string want = "a number";
    if (std::isfinite(lo))
        want += std::isfinite(hi)
                    ? " from " + fmtNumber(lo) + " to " + fmtNumber(hi)
                    : " >= " + fmtNumber(lo);
    else if (std::isfinite(hi))
        want += " <= " + fmtNumber(hi);
    return value(name, metavar, help, want,
                 [&dst, lo, hi](const std::string &v) {
                     double x = 0;
                     if (!parseNumber(v, x) || x < lo || x > hi)
                         return false;
                     dst = x;
                     return true;
                 });
}

Cli &
Cli::numbers(const std::string &name, const std::string &metavar,
             const std::string &help, std::vector<double> &dst)
{
    return value(name, metavar, help, "comma-separated numbers",
                 [&dst](const std::string &v) {
                     std::vector<double> list;
                     for (const std::string &item : splitList(v)) {
                         double x = 0;
                         if (!parseNumber(item, x))
                             return false;
                         list.push_back(x);
                     }
                     if (list.empty())
                         return false;
                     dst = std::move(list);
                     return true;
                 });
}

Cli &
Cli::machines(const std::string &help, std::vector<MachineId> &dst)
{
    std::vector<MachineId> known;
    std::string slugs;
    for (const MachineDesc &m : allMachines()) {
        slugs += (known.empty() ? "" : ", ") +
                 std::string(machineSlug(m.id));
        known.push_back(m.id);
    }
    return value(
        "--machines", "SLUG[,SLUG...]", help + " (repeatable)",
        "comma-separated machine slugs (" + slugs + ")",
        [&dst, known](const std::string &v) {
            std::vector<MachineId> list;
            for (const std::string &slug : splitList(v)) {
                std::size_t k = 0;
                while (k < known.size() && slug != machineSlug(known[k]))
                    ++k;
                if (k == known.size())
                    return false;
                list.push_back(known[k]);
            }
            dst.insert(dst.end(), list.begin(), list.end());
            return !list.empty();
        });
}

Cli &
Cli::jobs(unsigned &dst)
{
    return value("--jobs", "N",
                 "worker threads, at most 1024 (default: all cores; "
                 "1 = serial; output is identical either way)",
                 "a whole number from 0 to " + std::to_string(maxJobs),
                 [&dst](const std::string &v) { return parseJobs(v, dst); });
}

Cli &
Cli::reps(const std::string &help, unsigned &dst)
{
    return value("--reps", "N", help,
                 "a whole number from 0 to " + std::to_string(UINT32_MAX),
                 [&dst](const std::string &v) { return parseReps(v, dst); });
}

Cli &
Cli::positionals(std::vector<std::string> &dst, std::size_t max)
{
    positionalDst = &dst;
    maxPositionals = max;
    return *this;
}

Cli &
Cli::command(std::string &dst,
             std::vector<std::pair<std::string, std::string>> cmds)
{
    commandDst = &dst;
    commands = std::move(cmds);
    return *this;
}

CliParse
Cli::parse(int argc, const char *const argv[]) const
{
    CliParse r;
    auto fail = [&](const std::string &msg) {
        r.error = shown(argc > 0 ? argv[0] : "") + ": " + msg;
        return r;
    };
    auto helpAsked = [&](const std::string &tok) {
        r.help = tok == "--help" || tok == "-h";
        return r.help;
    };

    int i = 1;
    if (commandDst) {
        std::string cmd = argc > 1 ? argv[1] : "";
        if (helpAsked(cmd == "help" ? "--help" : cmd))
            return r;
        std::string names;
        bool known = false;
        for (const auto &c : commands) {
            names += (names.empty() ? "" : ", ") + c.first;
            known = known || cmd == c.first;
        }
        if (!known)
            return fail(argc < 2 ? "wants a command (" + names + ")"
                                 : "unknown command '" + shown(cmd) +
                                       "' (" + names + ")");
        *commandDst = cmd;
        i = 2;
    }

    for (; i < argc; ++i) {
        std::string tok = argv[i];
        if (helpAsked(tok))
            return r;
        if (tok.size() < 2 || tok[0] != '-') {
            if (!positionalDst || positionalDst->size() == maxPositionals)
                return fail("unexpected argument '" + shown(tok) + "'");
            positionalDst->push_back(tok);
            continue;
        }
        auto f = std::find_if(
            flags.begin(), flags.end(),
            [&](const CliFlag &row) { return row.name == tok; });
        if (f == flags.end())
            return fail("unknown flag '" + shown(tok) + "'");
        if (f->seen)
            *f->seen = true;
        bool has_next = i + 1 < argc;
        if (f->takes == CliFlag::Takes::OptionalValue && has_next &&
            argv[i + 1][0] != '-')
            f->set(argv[++i]);
        if (f->takes != CliFlag::Takes::Value)
            continue;
        std::string v = has_next ? argv[++i] : "";
        if (!has_next || !f->set(v))
            return fail(tok + " wants " + f->want + ", got " +
                        (has_next ? "'" + shown(v) + "'" : "nothing"));
    }
    return r;
}

std::optional<int>
Cli::parseOrExit(int argc, char **argv) const
{
    CliParse r = parse(argc, argv);
    if (r.ok())
        return std::nullopt;
    std::string text =
        r.help ? usage(argc > 0 ? argv[0] : "") : r.error + "\n";
    std::fputs(text.c_str(), stderr);
    return r.help ? 0 : 2;
}

std::string
Cli::usage(const std::string &argv0) const
{
    std::string out = "usage: " + argv0 + " " + synopsis + "\n";
    if (!commands.empty()) {
        out += "commands:\n";
        for (const auto &[name, help] : commands)
            appendRow(out, name, help);
        out += "options:\n";
    }
    for (const CliFlag &f : flags) {
        std::string left = f.name;
        if (f.takes == CliFlag::Takes::OptionalValue)
            left += " [" + f.metavar + "]";
        else if (!f.metavar.empty())
            left += " " + f.metavar;
        appendRow(out, left, f.help);
    }
    appendRow(out, "-h, --help", "print this help and exit");
    return out;
}

bool
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     path.c_str());
        return false;
    }
    out << content;
    return true;
}

bool
writeOutput(const std::string &path, const std::string &content,
            const std::string &label)
{
    if (path.empty()) {
        std::fputs(content.c_str(), stdout);
        return true;
    }
    if (!writeFile(path, content))
        return false;
    std::fprintf(stderr, "%s -> %s\n", label.c_str(), path.c_str());
    return true;
}

bool
readJsonFile(const std::string &path, Json &out)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot read %s\n", path.c_str());
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string error;
    out = Json::parse(buf.str(), &error);
    if (out.isNull() && !error.empty()) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
        return false;
    }
    return true;
}

bool
readJsonFile(const std::string &path, Json &doc, const Json *&slot)
{
    if (path.empty())
        return true;
    slot = &doc;
    return readJsonFile(path, doc);
}

} // namespace aosd
