/**
 * @file
 * Output checks. Every document and every reconciled cell is one
 * checked op; the run's failed share is failed / attempted.
 */

#include <cstdio>
#include <fstream>
#include <sstream>

#include "perfbench.hh"

using namespace aosd;

namespace perfbench
{

namespace
{

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    out = buf.str();
    return true;
}

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

/** explained_pct of a reconciliation, or -1 when absent. */
double
explainedPct(const Json *rec)
{
    const Json *pct = rec ? rec->find("explained_pct") : nullptr;
    return pct && pct->isNumber() ? pct->asNumber() : -1.0;
}

/** Every kernel-window cell of one document must explain exactly
 *  100% of the primitive cycles the kernel charged. */
void
checkCells(const std::string &name, const Json &doc, CheckTally &tally)
{
    auto cell = [&](const std::string &id, const Json *rec) {
        double pct = explainedPct(rec);
        tally.check(pct == 100.0,
                    name + " cell " + id + " explains " +
                        std::to_string(pct) + "%, not 100%");
    };
    if (startsWith(name, "traffic.")) {
        const Json &machines = doc.at("machines");
        for (std::size_t m = 0; m < machines.size(); ++m) {
            const Json &levels = machines.at(m).at("load_levels");
            for (std::size_t l = 0; l < levels.size(); ++l)
                cell(machines.at(m).at("machine").asString() + "@" +
                         std::to_string(l),
                     levels.at(l).find("kernel_window"));
        }
    } else if (name == "kernel_windows") {
        for (const auto &[id, c] : doc.at("cells").items())
            cell(id, c.find("reconciliation"));
    } else if (name == "timeseries") {
        for (const auto &[id, c] : doc.at("table7").at("cells").items())
            cell(id, c.find("kernel_window"));
    } else if (name == "spans") {
        // The span study's own gate: the p99-vs-median gap is >= 80%
        // explained, and no span was dropped.
        for (const auto &[machine, prims] : doc.at("machines").items())
            for (const auto &[prim, c] : prims.items()) {
                double pct = explainedPct(c.find("tail_attribution"));
                tally.check(pct >= 80.0 && c.at("dropped").asUint() == 0,
                            "spans cell " + machine + "/" + prim +
                                " tail explains " + std::to_string(pct) +
                                "% or dropped spans");
            }
    }
}

} // namespace

std::string
digest(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char ch : text) {
        h ^= ch;
        h *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

void
CheckTally::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        messages.push_back(what);
    }
}

std::string
loadReferences(const std::string &golden_dir,
               const std::string &digest_path, References &out)
{
    for (const char *name : {"report", "counters", "profile", "spans"}) {
        std::string path =
            golden_dir + "/expected_" + std::string(name) + ".json";
        if (!readFile(path, out.goldens[name]))
            return "cannot read " + path;
    }
    std::string text;
    if (!readFile(digest_path, text))
        return "cannot read " + digest_path;
    std::string error;
    Json doc = Json::parse(text, &error);
    if (!doc.isObject())
        return digest_path + ": " + (error.empty() ? "not an object" : error);
    for (const auto &[name, value] : doc.items())
        if (value.isString())
            out.digests[name] = value.asString();
    return {};
}

std::vector<std::string>
iterationDigests(const Iteration &it)
{
    std::vector<std::string> out;
    for (const std::string &t : it.texts)
        out.push_back(digest(t));
    for (const std::string &p : it.pages)
        out.push_back(digest(p));
    return out;
}

void
checkIteration(const Workload &w, const Iteration &it,
               const References &refs,
               const std::vector<std::string> &first_digests,
               CheckTally &tally)
{
    // Later iterations must reproduce the fully checked first one
    // byte for byte; that is one op and costs a hash, not a re-parse.
    if (!first_digests.empty()) {
        tally.check(iterationDigests(it) == first_digests,
                    "documents differ from the first iteration's");
        return;
    }

    const bool default_seed = w.seed == 0;
    for (std::size_t i = 0; i < it.names.size(); ++i) {
        const std::string &name = it.names[i];
        const std::string &text = it.texts[i];

        // Committed goldens; the span study is seeded, so its golden
        // holds at the default seed only.
        auto golden = refs.goldens.find(name);
        if (golden != refs.goldens.end() &&
            (name != "spans" || default_seed))
            tally.check(text == golden->second,
                        name + " differs from tests/expected_" + name +
                            ".json");

        // Recorded digests of the documents without a golden.
        bool seeded = startsWith(name, "traffic.");
        if (golden == refs.goldens.end() && (!seeded || default_seed)) {
            auto want = refs.digests.find(name);
            tally.check(want != refs.digests.end() &&
                            want->second == digest(text),
                        name + " digest " + digest(text) +
                            " differs from the recorded one");
        }

        tally.check(it.parsed[i].dump(1) == text,
                    name + ": dump(parse(dump(doc))) != dump(doc)");
        checkCells(name, it.parsed[i], tally);
    }

    if (w.kind == WorkloadKind::Pipeline) {
        tally.check(!it.pages.empty() && it.linkProblems.empty(),
                    "dashboard: " +
                        std::to_string(it.linkProblems.size()) +
                        " dangling link(s)");
    }
}

} // namespace perfbench
