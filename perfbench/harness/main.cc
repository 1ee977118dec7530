/**
 * @file
 * perfbench_harness: one run of one benchmark workload.
 *
 *   perfbench_harness --workload W --seed N --seconds S --trace 0|1
 *                     --bin DIR --work DIR [--wrong-reference]
 *
 * Runs inside --work (created fresh by the caller; sockets, traces,
 * caches and references live there) and drives the batch_run and
 * batch_service binaries found in --bin. Prints comment lines
 * ("# ...") with sample counts, then one JSON object as the last line:
 * {"correct", "attempted", "failed", "metrics"}. A run with a failed
 * operation reports no metrics. perfbench/run.py builds the binaries
 * and is the intended entry point.
 */

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <string>

#include "bench.hh"
#include "workloads.hh"

namespace
{

using namespace perfbench;

/** Units of every metric the harness prints. */
const std::map<std::string, std::string> metric_units = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"sim_minst_per_s", "Minst/s"},
    {"cpi_err_pct", "%"},
    {"cpi_err_max_pct", "%"},
    {"mpki_err_abs", "MPKI"},
    {"job_p50_ms", "ms"},
    {"job_tail_ms", "ms"},
    {"jobs_per_s", "1/s"},
    {"window_p50_ms", "ms"},
    {"window_tail_ms", "ms"},
    {"close_ms", "ms"},
    {"stream_mb_per_s", "MB/s"},
    // Per-layer metrics (traced mode); unlisted ones are counts.
    {"sampling.fast_forward_ms", "ms"},
    {"core.scout_ms", "ms"},
    {"core.warm_ms", "ms"},
    {"core.analyst_ms", "ms"},
    {"core.assemble_ms", "ms"},
    {"core.session_feed_ms", "ms"},
    {"profiling.explorer_replay_ms", "ms"},
    {"profiling.vicinity_ms", "ms"},
    {"statmodel.solve_ms", "ms"},
    {"cpu.analyze_ms", "ms"},
    {"cpu.minst_per_s", "Minst/s"},
    {"profiling.false_positive_ratio", "ratio"},
    {"core.keys_explored_ratio", "ratio"},
    {"workload.replay_minst_per_s", "Minst/s"},
    {"workload.record_s", "s"},
    {"batch.plan_ms", "ms"},
    {"batch.digest_ms", "ms"},
    {"batch.cache_load_ms", "ms"},
    {"batch.cache_store_ms", "ms"},
    {"batch.runner_overhead_ms", "ms"},
    {"service.submit_rtt_ms", "ms"},
    {"service.status_rtt_ms", "ms"},
    {"service.result_rtt_ms", "ms"},
    {"service.queue_wait_ms", "ms"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.append_spool_ms", "ms"},
    {"service.append_overhead_ms", "ms"},
    {"service.fleet_queue_wait_ms", "ms"},
    {"trace.coverage_pct", "%"},
    {"trace.overhead_pct", "%"},
};

std::string
unitOf(const std::string &name)
{
    const auto it = metric_units.find(name);
    return it == metric_units.end() ? "count" : it->second;
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_harness --workload W --seed N "
                 "--seconds S --trace 0|1 --bin DIR --work DIR "
                 "[--wrong-reference]\n");
    std::exit(2);
}

void
printJson(const Report &rep)
{
    const bool correct = rep.failed == 0 && rep.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                (unsigned long long)std::max<std::uint64_t>(rep.attempted, 1),
                (unsigned long long)rep.failed);
    if (correct) {
        bool first = true;
        for (const auto &[name, value] : rep.metrics) {
            const double v = std::isfinite(value) ? value : 0.0;
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        first ? "" : ", ", name.c_str(), v,
                        unitOf(name).c_str());
            first = false;
        }
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    installCleanup();
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--workload")
            opt.workload = next();
        else if (arg == "--seed")
            opt.seed = std::stoull(next());
        else if (arg == "--seconds")
            opt.seconds = std::stod(next());
        else if (arg == "--trace")
            opt.trace = next() != "0";
        else if (arg == "--bin")
            opt.bin_dir = next();
        else if (arg == "--work")
            opt.work_dir = next();
        else if (arg == "--wrong-reference")
            opt.wrong_reference = true;
        else
            usage();
    }
    if (opt.workload.empty() || opt.bin_dir.empty() || opt.work_dir.empty())
        usage();
    if (::chdir(opt.work_dir.c_str()) != 0) {
        std::fprintf(stderr, "perfbench: cannot enter %s\n",
                     opt.work_dir.c_str());
        return 2;
    }
    std::setvbuf(stdout, nullptr, _IOLBF, 0);

    Report rep;
    try {
        if (opt.trace)
            rep = traceLayers(opt);
        else if (opt.workload == "dse_sweep")
            rep = dseSweep(opt);
        else if (opt.workload == "service_mix")
            rep = serviceMix(opt);
        else if (opt.workload == "trace_stream")
            rep = traceStream(opt);
        else if (opt.workload == "fleet_sweep")
            rep = fleetSweep(opt);
        else
            usage();
    } catch (const std::exception &e) {
        rep.fail(std::string("unexpected error: ") + e.what());
    }
    killAll();
    printJson(rep);
    return 0;
}
