/**
 * perfbench — the repo benchmark's binary.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--scratch DIR] [--smoke] [--layout baseline|gini|dnamapper]
 *
 * Runs one named workload closed-loop for S seconds on inputs made
 * from seed N, checks every output, and prints one JSON report line
 * (see common.hh). perfbench/run.py builds this binary and turns the
 * report into the benchmark's result line.
 *
 * Workloads: unit-roundtrip, unit-clustered, daemon-rw, lab-sweep.
 * Exit codes: 0 report printed, 2 usage error.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "util/parse.hh"
#include "workloads.hh"

namespace {

using perfbench::RunOptions;

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "unit-roundtrip|unit-clustered|daemon-rw|lab-sweep "
                 "--seed N --seconds S --trace 0|1 [--scratch DIR] "
                 "[--smoke] [--layout baseline|gini|dnamapper]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opt;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const bool has_value = i + 1 < argc;
        if (flag == "--smoke") {
            opt.smoke = true;
        } else if (!has_value) {
            return usage(("missing value for " + flag).c_str());
        } else if (flag == "--workload") {
            opt.workload = argv[++i];
        } else if (flag == "--seed") {
            if (!dnastore::parseU64(argv[++i], &opt.seed))
                return usage("--seed must be an unsigned integer");
        } else if (flag == "--seconds") {
            if (!dnastore::parseF64(argv[++i], &opt.seconds) ||
                !(opt.seconds > 0))
                return usage("--seconds must be a positive number");
        } else if (flag == "--trace") {
            const std::string v = argv[++i];
            if (v != "0" && v != "1")
                return usage("--trace must be 0 or 1");
            opt.trace = v == "1";
        } else if (flag == "--scratch") {
            opt.scratch = argv[++i];
        } else if (flag == "--layout") {
            opt.layout = argv[++i];
            if (opt.layout != "baseline" && opt.layout != "gini" &&
                opt.layout != "dnamapper")
                return usage("--layout must be baseline, gini or "
                             "dnamapper");
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }

    // The host block first: its parallelism probe must not overlap the
    // workload's own threads.
    const std::string host = perfbench::hostJson();
    perfbench::Report report;
    if (opt.workload == "unit-roundtrip")
        report = perfbench::runUnit(opt, false);
    else if (opt.workload == "unit-clustered")
        report = perfbench::runUnit(opt, true);
    else if (opt.workload == "daemon-rw")
        report = perfbench::runDaemon(opt);
    else if (opt.workload == "lab-sweep")
        report = perfbench::runLab(opt);
    else
        return usage(("unknown workload '" + opt.workload + "'").c_str());

    std::printf("%s\n", perfbench::reportJson(report, host).c_str());
    return 0;
}
