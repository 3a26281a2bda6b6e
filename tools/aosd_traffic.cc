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
 *   aosd_traffic --machines R3000 --requests 250000
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
 * SimKernel's closed-form charging of a run of n events is what makes
 * million-request sweeps affordable: each request's primitive runs
 * are charged in one update each.
 *
 * Every flag parses through sim/cli.hh, and the sweep must pass
 * trafficConfigError(); otherwise the tool prints one line and exits
 * 2.
 */

#include <algorithm>
#include <cstdio>
#include <string>

#include "sim/cli.hh"
#include "sim/parallel/parallel_runner.hh"
#include "sim/table.hh"
#include "workload/traffic.hh"

using namespace aosd;

namespace
{

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

    Cli cli;
    cli.optionalText("--json", "path",
                     "write traffic.json (stdout when no path)", json_out,
                     json_path)
        .choice("--mode",
                "open: arrivals ignore completions (load = fraction of "
                "kernel capacity); closed: load = client population "
                "with think time (default open)",
                cfg.mode,
                {{"open", TrafficMode::Open},
                 {"closed", TrafficMode::Closed}})
        .choice("--arrival", "open-loop gap process (default uniform)",
                cfg.arrival,
                {{"uniform", TrafficArrival::Uniform},
                 {"bursty", TrafficArrival::Bursty},
                 {"diurnal", TrafficArrival::Diurnal}})
        .whole("--requests", "N",
               "requests per (machine x level) cell, 1 to 100000000 "
               "(default 100000)",
               cfg.requestsPerLevel)
        .numbers("--levels", "CSV",
                 "load levels: open, > 0 and <= 100 (default "
                 "0.3,0.6,0.9,1.2); closed, whole client counts from 1 "
                 "to 1000000 (required)",
                 cfg.levels)
        .machines("machines to sweep (default: Table 1 machines)",
                  cfg.machines)
        .number("--think", "F",
                "closed-loop think time as a multiple of the mean "
                "service time, >= 0 (default 5)",
                cfg.thinkFactor)
        .whole("--seed", "N", "sweep seed (default 0x5eedf00d)",
               cfg.seed)
        .whole("--exemplars", "K",
               "slowest requests kept per cell, 0 to 10000 (default 5)",
               cfg.exemplars)
        .number("--min-explained", "PCT",
                "fail unless every cell's kernel window explains at "
                "least PCT% of its primitive cycles (default 99.999)",
                min_explained, 0, 100)
        .jobs(jobs);
    if (auto rc = cli.parseOrExit(argc, argv))
        return *rc;
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

    if (!json_out)
        printTextSummary(doc);
    else if (!writeOutput(json_path, doc.dump(1), "traffic"))
        return 1;
    return 0;
}
