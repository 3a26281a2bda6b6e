/**
 * @file
 * aosd_spans: run the span-traced request study and report latency
 * percentiles, slowest-request exemplars and tail attribution.
 *
 *   aosd_spans                       # text summary to stdout
 *   aosd_spans --json                # spans.json to stdout
 *   aosd_spans --json spans.json     # ... to a file
 *   aosd_spans --perfetto trace.json # chrome://tracing export of the
 *                                    # exemplar span trees
 *   aosd_spans --jobs 8              # fan the cell grid over 8
 *                                    # worker threads
 *   aosd_spans --requests 200        # requests per (machine,
 *                                    # primitive) cell
 *   aosd_spans --top 5               # exemplars kept per cell
 *
 * spans.json is byte-identical at any --jobs value (CI cmp-gates
 * --jobs 1 against --jobs 8).
 */

#include <cstdio>
#include <fstream>
#include <string>

#include "sim/numeric_flags.hh"
#include "sim/parallel/parallel_runner.hh"
#include "study/span_report.hh"

using namespace aosd;

namespace
{

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--json [path]] [--perfetto path] [--jobs N]\n"
        "          [--requests N] [--top K] [--machines SLUG[,...]]\n"
        "  --json [path]   write spans.json (stdout when no path)\n"
        "  --perfetto path write a chrome://tracing export of the\n"
        "                  exemplar span trees\n"
        "  --jobs N        worker threads, at most 1024 (default: all\n"
        "                  cores; 1 = serial; output is identical\n"
        "                  either way)\n"
        "  --requests N    span-traced requests per (machine,\n"
        "                  primitive) cell (default 1000)\n"
        "  --top K         slowest-request exemplars per cell\n"
        "                  (default 3)\n"
        "  --machines list comma-separated machine slugs\n"
        "                  (default: the five Table 1 machines; the\n"
        "                  same spelling as aosd_counters and\n"
        "                  aosd_traffic)\n",
        argv0);
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

} // namespace

int
main(int argc, char **argv)
{
    bool json_out = false;
    std::string json_path;
    std::string perfetto_path;
    unsigned jobs = ParallelRunner::defaultJobs();
    SpanOptions opts;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto takesValue = [&](std::string &dst) {
            if (i + 1 >= argc) {
                usage(argv[0]);
                return false;
            }
            dst = argv[++i];
            return true;
        };
        if (arg == "--json") {
            json_out = true;
            if (i + 1 < argc && argv[i + 1][0] != '-')
                json_path = argv[++i];
        } else if (arg == "--perfetto") {
            if (!takesValue(perfetto_path))
                return 2;
        } else if (arg == "--jobs") {
            std::string v;
            if (!takesValue(v))
                return 2;
            if (!parseJobs(v, jobs))
                return badFlag(argv[0], arg, v, jobsWant);
        } else if (arg == "--requests") {
            std::string v;
            if (!takesValue(v))
                return 2;
            if (!parseCount(v, opts.requestsPerPair) ||
                opts.requestsPerPair == 0)
                return badFlag(argv[0], arg, v, "a whole number >= 1");
        } else if (arg == "--top") {
            std::string v;
            if (!takesValue(v))
                return 2;
            if (!parseCount(v, opts.topK))
                return badFlag(argv[0], arg, v, "a whole number");
        } else if (arg == "--machines") {
            std::string list;
            if (!takesValue(list))
                return 2;
            std::size_t pos = 0;
            while (pos <= list.size()) {
                std::size_t comma = list.find(',', pos);
                if (comma == std::string::npos)
                    comma = list.size();
                std::string slug = list.substr(pos, comma - pos);
                if (!slug.empty())
                    opts.machines.push_back(machineFromSlug(slug));
                pos = comma + 1;
            }
            if (opts.machines.empty()) {
                usage(argv[0]);
                return 2;
            }
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            usage(argv[0]);
            return 2;
        }
    }

    ParallelRunner runner(jobs);
    Json doc = buildSpansDoc(runner, opts);

    if (!perfetto_path.empty()) {
        if (!writeFile(perfetto_path, spansPerfettoJson(doc)))
            return 1;
        std::fprintf(stderr, "perfetto -> %s\n",
                     perfetto_path.c_str());
    }

    if (json_out) {
        std::string text = doc.dump(1);
        if (json_path.empty())
            std::fputs(text.c_str(), stdout);
        else if (!writeFile(json_path, text))
            return 1;
        else
            std::fprintf(stderr, "spans -> %s\n", json_path.c_str());
    } else {
        std::fputs(spansTextSummary(doc).c_str(), stdout);
    }
    return 0;
}
