/**
 * @file
 * aosd_traffic: synthetic open/closed-loop load over the simulated
 * kernels — "how many clients until p99 collapses?"
 *
 *   aosd_traffic                         # text summary to stdout
 *   aosd_traffic --json traffic.json     # traffic.json v1 to a file
 *   aosd_traffic --mode closed --levels 1,4,16,64
 *                                        # closed loop, client sweep
 *   aosd_traffic --arrival bursty        # Markov-modulated arrivals
 *   aosd_traffic --machines r3000 --requests 250000
 *                                        # one machine, 250k requests
 *                                        # per load level (the 1M
 *                                        # sweep at 4 levels)
 *   aosd_traffic --jobs 8                # fan (machine × level) cells
 *                                        # — output byte-identical to
 *                                        # --jobs 1
 *
 * Requests are weighted mixes of the kernel's closed-form primitives,
 * queued FIFO at one simulated server per cell; latency/wait
 * percentiles come from the exact log2 histogram and every cell's
 * kernel window must reconcile (the --min-explained gate, default
 * 99.999%: the request classes use only exactly-priced primitives, so
 * anything less than 100% explained is a charging bug, not noise).
 * The kernel's batched entry points (SimKernel::*Batch) are what make
 * million-request sweeps affordable: each request's primitive runs
 * are charged in closed form.
 *
 * Every numeric flag must parse as a whole token, and the sweep must
 * pass trafficConfigError(); otherwise the tool prints one line and
 * exits 2.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "arch/machines.hh"
#include "sim/numeric_flags.hh"
#include "sim/parallel/parallel_runner.hh"
#include "sim/table.hh"
#include "workload/traffic.hh"

using namespace aosd;

namespace
{

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--json [path]] [--mode open|closed]\n"
        "          [--arrival uniform|bursty|diurnal] [--requests N]\n"
        "          [--levels CSV] [--machines CSV] [--think F]\n"
        "          [--seed N] [--exemplars K] [--min-explained PCT]\n"
        "          [--jobs N]\n"
        "  --json [path]  write traffic.json (stdout when no path)\n"
        "  --mode M       open: arrivals ignore completions (load =\n"
        "                 fraction of kernel capacity); closed: load =\n"
        "                 client population with think time\n"
        "  --arrival A    open-loop gap process (default uniform)\n"
        "  --requests N   requests per (machine x level) cell, 1 to\n"
        "                 100000000 (default 100000)\n"
        "  --levels CSV   load levels: open, > 0 and <= 100 (default\n"
        "                 0.3,0.6,0.9,1.2); closed, whole client counts\n"
        "                 from 1 to 1000000 (required)\n"
        "  --machines CSV machine slugs (default: Table 1 machines)\n"
        "  --think F      closed-loop think time as a multiple of the\n"
        "                 mean service time, >= 0 (default 5)\n"
        "  --seed N       sweep seed (default 0x5eedf00d)\n"
        "  --exemplars K  slowest requests kept per cell, 0 to\n"
        "                 10000 (default 5)\n"
        "  --min-explained PCT\n"
        "                 fail unless every cell's kernel window\n"
        "                 explains at least PCT%% of its primitive\n"
        "                 cycles (default 99.999)\n"
        "  --jobs N       worker threads, at most 1024 (default: all\n"
        "                 cores; 1 = serial; output is identical either\n"
        "                 way)\n",
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

std::vector<std::string>
splitCsv(const std::string &s)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (start <= s.size()) {
        std::size_t comma = s.find(',', start);
        if (comma == std::string::npos)
            comma = s.size();
        if (comma > start)
            parts.push_back(s.substr(start, comma - start));
        start = comma + 1;
    }
    return parts;
}

void
printTextSummary(const Json &doc)
{
    std::printf("aosd_traffic: %s-loop %s arrivals, %llu requests "
                "per cell\n\n",
                doc.at("config").at("mode").asString().c_str(),
                doc.at("config").at("arrival").asString().c_str(),
                static_cast<unsigned long long>(
                    doc.at("config")
                        .at("requests_per_level")
                        .asUint()));
    for (std::size_t mi = 0; mi < doc.at("machines").size(); ++mi) {
        const Json &m = doc.at("machines").at(mi);
        TextTable t;
        t.header({"load", "krps", "p50 cyc", "p90 cyc", "p99 cyc",
                  "p99.9 cyc", "max q", "explained"});
        const Json &levels = m.at("load_levels");
        for (std::size_t li = 0; li < levels.size(); ++li) {
            const Json &cell = levels.at(li);
            const Json &lat = cell.at("latency_cycles").at("all");
            t.row({TextTable::num(cell.at("load").asNumber(), 2),
                   TextTable::num(
                       cell.at("throughput_rps").asNumber() / 1e3, 1),
                   TextTable::num(lat.at("p50").asNumber(), 0),
                   TextTable::num(lat.at("p90").asNumber(), 0),
                   TextTable::num(lat.at("p99").asNumber(), 0),
                   TextTable::num(lat.at("p999").asNumber(), 0),
                   TextTable::num(
                       cell.at("max_queue_depth").asNumber(), 0),
                   TextTable::num(cell.at("kernel_window")
                                      .at("explained_pct")
                                      .asNumber(),
                                  3) +
                       "%"});
        }
        std::printf("%s\n%s\n", m.at("machine").asString().c_str(),
                    t.render().c_str());
    }
}

/** Lowest explained_pct across every cell (the honesty gate). */
double
worstExplainedPct(const Json &doc)
{
    double worst = 100.0;
    for (std::size_t mi = 0; mi < doc.at("machines").size(); ++mi) {
        const Json &levels =
            doc.at("machines").at(mi).at("load_levels");
        for (std::size_t li = 0; li < levels.size(); ++li) {
            double pct = levels.at(li)
                             .at("kernel_window")
                             .at("explained_pct")
                             .asNumber();
            worst = std::min(worst, pct);
        }
    }
    return worst;
}

} // namespace

int
main(int argc, char **argv)
{
    TrafficConfig cfg;
    bool json_out = false;
    std::string json_path;
    double min_explained = 99.999;
    unsigned jobs = ParallelRunner::defaultJobs();

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
        std::string val;
        auto bad = [&](const char *want) {
            return badFlag(argv[0], arg, val, want);
        };
        std::uint64_t u = 0;
        if (arg == "--json") {
            json_out = true;
            if (i + 1 < argc && argv[i + 1][0] != '-')
                json_path = argv[++i];
        } else if (arg == "--mode") {
            if (!takesValue(val))
                return 2;
            if (val == "open") {
                cfg.mode = TrafficMode::Open;
            } else if (val == "closed") {
                cfg.mode = TrafficMode::Closed;
            } else {
                usage(argv[0]);
                return 2;
            }
        } else if (arg == "--arrival") {
            if (!takesValue(val))
                return 2;
            if (val == "uniform") {
                cfg.arrival = TrafficArrival::Uniform;
            } else if (val == "bursty") {
                cfg.arrival = TrafficArrival::Bursty;
            } else if (val == "diurnal") {
                cfg.arrival = TrafficArrival::Diurnal;
            } else {
                usage(argv[0]);
                return 2;
            }
        } else if (arg == "--requests") {
            if (!takesValue(val))
                return 2;
            if (!parseUint(val, cfg.requestsPerLevel))
                return bad("a whole number");
        } else if (arg == "--levels") {
            if (!takesValue(val))
                return 2;
            cfg.levels.clear();
            for (const std::string &p : splitCsv(val)) {
                double level = 0;
                if (!parseNumber(p, level))
                    return bad("comma-separated numbers");
                cfg.levels.push_back(level);
            }
        } else if (arg == "--machines") {
            if (!takesValue(val))
                return 2;
            cfg.machines.clear();
            for (const std::string &p : splitCsv(val))
                cfg.machines.push_back(machineFromSlug(p));
        } else if (arg == "--think") {
            if (!takesValue(val))
                return 2;
            if (!parseNumber(val, cfg.thinkFactor))
                return bad("a number");
        } else if (arg == "--seed") {
            if (!takesValue(val))
                return 2;
            if (!parseUint(val, cfg.seed))
                return bad("a whole number");
        } else if (arg == "--exemplars") {
            if (!takesValue(val))
                return 2;
            if (!parseUint(val, u))
                return bad("a whole number");
            cfg.exemplars = u;
        } else if (arg == "--min-explained") {
            if (!takesValue(val))
                return 2;
            if (!parseNumber(val, min_explained))
                return bad("a number");
        } else if (arg == "--jobs") {
            if (!takesValue(val))
                return 2;
            if (!parseJobs(val, jobs))
                return bad(jobsWant);
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            usage(argv[0]);
            return 2;
        }
    }
    std::string problem = trafficConfigError(cfg);
    if (!problem.empty()) {
        std::fprintf(stderr, "%s: %s\n", argv[0], problem.c_str());
        return 2;
    }

    ParallelRunner runner(jobs);
    Json doc = buildTrafficDoc(cfg, runner);

    double worst = worstExplainedPct(doc);
    if (worst < min_explained || worst > 200.0 - min_explained) {
        std::fprintf(stderr,
                     "kernel-window reconciliation failed: worst cell "
                     "explains %.3f%% (gate %.3f%%)\n",
                     worst, min_explained);
        return 1;
    }

    if (json_out) {
        std::string text = doc.dump(1);
        if (json_path.empty())
            std::fputs(text.c_str(), stdout);
        else if (!writeFile(json_path, text))
            return 1;
        else
            std::fprintf(stderr, "traffic -> %s\n", json_path.c_str());
    } else {
        printTextSummary(doc);
    }
    return 0;
}
