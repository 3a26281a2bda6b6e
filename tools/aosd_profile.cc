/**
 * @file
 * aosd_profile: hierarchical cycle attribution for the OS primitives.
 *
 *   aosd_profile                          # text tree to stdout
 *   aosd_profile --json profile.json      # machine-readable document
 *   aosd_profile --folded profile.folded  # collapsed stacks for
 *                                         # flamegraph.pl / speedscope
 *   aosd_profile --reps 32                # repetitions per primitive
 *   aosd_profile --machines R2000,SPARC   # subset of Table 1
 *   aosd_profile --jobs 8                 # parallel profiling grid
 *
 * Every machine × primitive handler runs under the cycle-attribution
 * profiler; the tool self-checks that the attributed cycles equal the
 * charged cycles (sum-of-leaves == total) and exits non-zero naming
 * the offending pair if any cycle went unattributed.
 *
 * The document itself is built by study/profile_report.cc (schema
 * there); the output is byte-identical at any --jobs value.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "arch/machines.hh"
#include "sim/numeric_flags.hh"
#include "sim/parallel/parallel_runner.hh"
#include "study/profile_report.hh"

using namespace aosd;

namespace
{

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--json path] [--folded path] [--reps N]\n"
        "          [--machines SLUG[,SLUG...]] [--jobs N]\n"
        "  --json path      write profile.json\n"
        "  --folded path    write collapsed stacks (flamegraph input)\n"
        "  --reps N         repetitions per primitive (default 16)\n"
        "  --machines list  comma-separated machine slugs\n"
        "                   (default: the five Table 1 machines)\n"
        "  --jobs N         worker threads, at most 1024 (default: all\n"
        "                   cores; 1 = serial; output is identical\n"
        "                   either way)\n",
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

void
printTree(const Json &node, const std::string &name, int depth,
          double parent_total)
{
    double total = node.at("total_cycles").asNumber();
    double share = parent_total > 0 ? 100.0 * total / parent_total
                                    : 100.0;
    std::printf("  %*s%-*s %12.0f cy %5.1f%%", 2 * depth, "",
                28 - 2 * depth, name.c_str(), total, share);
    if (node.at("count").asUint() > 0)
        std::printf("  n=%llu p50=%llu p90=%llu p99=%llu",
                    static_cast<unsigned long long>(
                        node.at("count").asUint()),
                    static_cast<unsigned long long>(
                        node.at("p50_cycles").asUint()),
                    static_cast<unsigned long long>(
                        node.at("p90_cycles").asUint()),
                    static_cast<unsigned long long>(
                        node.at("p99_cycles").asUint()));
    std::printf("\n");
    for (const auto &[child_name, child] :
         node.at("children").items())
        printTree(child, child_name, depth + 1, total);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    std::string folded_path;
    unsigned reps = 16;
    unsigned jobs = ParallelRunner::defaultJobs();
    std::vector<MachineDesc> machines;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage(argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--json") {
            json_path = value();
        } else if (arg == "--folded") {
            folded_path = value();
        } else if (arg == "--reps") {
            std::string v = value();
            if (!parseReps(v, reps))
                return badFlag(argv[0], arg, v, repsWant);
        } else if (arg == "--jobs") {
            std::string v = value();
            if (!parseJobs(v, jobs))
                return badFlag(argv[0], arg, v, jobsWant);
        } else if (arg == "--machines") {
            std::string list = value();
            std::size_t pos = 0;
            while (pos <= list.size()) {
                std::size_t comma = list.find(',', pos);
                if (comma == std::string::npos)
                    comma = list.size();
                std::string slug = list.substr(pos, comma - pos);
                if (!slug.empty())
                    machines.push_back(
                        makeMachine(machineFromSlug(slug)));
                pos = comma + 1;
            }
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            usage(argv[0]);
            return 2;
        }
    }
    if (machines.empty())
        machines = table1Machines();

    ParallelRunner runner(jobs);
    std::vector<ProfiledPrimitiveRun> runs =
        profileAllPrimitives(machines, reps, runner);
    Json doc = buildProfileDoc(machines, runs, reps);

    bool text_out = json_path.empty() && folded_path.empty();
    int incomplete = 0;
    for (const ProfiledPrimitiveRun &run : runs) {
        if (!run.complete()) {
            ++incomplete;
            std::fprintf(
                stderr,
                "SELF-CHECK FAILED %s/%s: charged %llu cycles but "
                "attributed %llu\n",
                machineSlug(run.machine), primitiveSlug(run.primitive),
                static_cast<unsigned long long>(run.totalCycles),
                static_cast<unsigned long long>(run.attributedCycles));
        }
    }

    if (text_out) {
        std::size_t next = 0;
        for (const MachineDesc &m : machines) {
            for (Primitive p : allPrimitives) {
                const ProfiledPrimitiveRun &run = runs.at(next++);
                double per_call =
                    static_cast<double>(run.totalCycles) /
                    static_cast<double>(reps);
                std::printf("%s / %s: %.0f cycles/call (%.2f us), "
                            "attribution %s\n",
                            m.name.c_str(), primitiveSlug(p),
                            per_call,
                            m.clock.cyclesToMicros(
                                static_cast<Cycles>(per_call + 0.5)),
                            run.complete() ? "complete"
                                           : "INCOMPLETE");
                printTree(run.tree, "total", 0,
                          static_cast<double>(run.totalCycles));
                std::printf("\n");
            }
        }
    }

    if (!json_path.empty()) {
        if (!writeFile(json_path, doc.dump(1)))
            return 2;
        std::fprintf(stderr, "profile -> %s\n", json_path.c_str());
    }
    if (!folded_path.empty()) {
        if (!writeFile(folded_path, foldedStacks(runs)))
            return 2;
        std::fprintf(stderr, "folded stacks -> %s\n",
                     folded_path.c_str());
    }

    if (incomplete) {
        std::fprintf(stderr,
                     "%d machine/primitive pair(s) with unattributed "
                     "cycles\n",
                     incomplete);
        return 1;
    }
    return 0;
}
