/**
 * @file
 * End-to-end benchmark entry point:
 *
 *   perfbench --workload <colocate-analytic|monitor-des|fleet-churn>
 *             --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
 *
 * Runs one workload single-threaded for about --seconds, checks its
 * outputs, and prints as its last stdout line one JSON object with
 * `correct`, `attempted`, `failed` and `metrics`: the end-to-end
 * metrics when untraced, the per-layer metrics when traced. Earlier
 * lines carry the build stamp and the run's deterministic decisions.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "common/log.h"
#include "common/thread_pool.h"
#include "harness.h"

using namespace perfbench;

namespace {

/** Every per-layer metric, in print order, with its unit. A workload
 *  that does not exercise a layer reports its counts as 0. */
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"model.calls", "count"},
    {"des.fine.calls", "count"},
    {"des.fine.us_per_call", "us"},
    {"des.coarse.calls", "count"},
    {"des.coarse.us_per_call", "us"},
    {"analytic.us_per_call", "us"},
    {"controller.ms_per_window", "ms"},
    {"refits", "count"},
    {"probe_evals", "count"},
    {"warm_probe_hits", "count"},
    {"probe_evals_per_refit", "ratio"},
    {"coarse_windows", "count"},
    {"reoptimizations", "count"},
    {"transients_ridden", "count"},
    {"sustained_shifts", "count"},
    {"violating_windows", "count"},
    {"qos_windows", "count"},
    {"monitor.ms_per_tick", "ms"},
    {"store.checkpoint_us", "us"},
    {"store.snapshots", "count"},
    {"warm.exact", "count"},
    {"warm.similar", "count"},
    {"warm.cold", "count"},
    {"fleet.dispatched", "count"},
    {"fleet.committed", "count"},
    {"fleet.commit_ratio", "ratio"},
    {"fleet.retried", "count"},
    {"fleet.hedges_won", "count"},
    {"fleet.workers_lost", "count"},
    {"fleet.evictions", "count"},
    {"fleet.parked", "count"},
    {"fleet.node_reoptimizations", "count"},
    {"trace.windows_per_s", "1/s"},
};

const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"setup_s", "s"},
    {"windows_per_s", "1/s"},
    {"window_ms.p50", "ms"},
    {"window_ms.tail", "ms"},
    {"search_ms.mean", "ms"},
    {"search_ms.tail", "ms"},
    {"search_windows", "count"},
    {"score.mean", "score"},
    {"qos_met.share", "share"},
};

[[noreturn]] void
usage(const char* msg)
{
    std::cerr << "perfbench: " << msg
              << "\nusage: perfbench --workload <colocate-analytic|"
                 "monitor-des|fleet-churn> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans <path>]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            a.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(value.c_str(), &end, 10);
            if (*end != '\0')
                usage("--seed takes a whole number");
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(a.seconds > 0.0) || a.seconds > 600.0)
                usage("--seconds takes a number in (0, 600]");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            a.trace = value == "1";
        } else if (flag == "--spans") {
            a.spans_out = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return a;
}

void
printMetrics(const std::vector<std::pair<const char*, const char*>>& names,
             const std::vector<Metric>& values)
{
    std::printf("\"metrics\": {");
    for (size_t i = 0; i < names.size(); ++i) {
        double v = 0.0;
        for (const Metric& m : values)
            if (m.name == names[i].first)
                v = m.value;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", names[i].first, v, names[i].second);
    }
    std::printf("}");
}

} // namespace

int
main(int argc, char** argv)
{
    const Args args = parseArgs(argc, argv);
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
        std::cerr << "perfbench: refusing to measure a '"
                  << PERFBENCH_BUILD_TYPE << "' build; build Release\n";
        return 2;
    }
    // One pool thread: on small machines extra workers add contention
    // but no throughput, and results are bit-identical at any count.
    clite::setGlobalThreadCount(1);
    // The fleet logs a warning per parked job; stderr writes would land
    // inside the timed windows.
    clite::Log::setLevel(clite::LogLevel::Off);
    tracer().enable(args.trace);

    Outcome out;
    try {
        if (args.workload == "colocate-analytic")
            out = runColocateAnalytic(args);
        else if (args.workload == "monitor-des")
            out = runMonitorDes(args);
        else if (args.workload == "fleet-churn")
            out = runFleetChurn(args);
        else
            usage(("unknown workload " + args.workload).c_str());
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << args.workload << " threw: " << e.what()
                  << "\n";
        return 1;
    }

    if (args.trace && !args.spans_out.empty() &&
        !tracer().write(args.spans_out)) {
        std::cerr << "perfbench: cannot write spans to " << args.spans_out
                  << "\n";
        return 1;
    }
    for (const std::string& e : out.errors)
        std::cerr << "perfbench: check failed: " << e << "\n";

    std::printf("stamp: {\"build_type\": \"%s\", \"threads\": %d, "
                "\"hardware_concurrency\": %u, \"workload\": \"%s\", "
                "\"seed\": %llu, \"trace\": %d}\n",
                PERFBENCH_BUILD_TYPE, clite::globalPool().threadCount(),
                std::thread::hardware_concurrency(), args.workload.c_str(),
                (unsigned long long)args.seed, args.trace ? 1 : 0);
    std::printf("decisions: {");
    bool first = true;
    for (const auto& [k, v] : out.decisions) {
        std::printf("%s\"%s\": %.17g", first ? "" : ", ", k.c_str(), v);
        first = false;
    }
    std::printf("}\n");
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
                out.correct ? "true" : "false",
                (unsigned long long)out.attempted,
                (unsigned long long)out.failed);
    if (args.trace)
        printMetrics(kPerLayer, out.per_layer);
    else
        printMetrics(kEndToEnd, out.end_to_end);
    std::printf("}\n");
    std::fflush(stdout);
    return 0;
}
