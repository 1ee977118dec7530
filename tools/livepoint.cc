/**
 * @file
 * Live-point checkpoint tool: record, inspect, verify and consume
 * DLRNLVP1 warm-state files (src/checkpoint/, docs/checkpoints.md).
 *
 *   livepoint record <trace-spec> <out.dlvp> [--spacing N] [--regions N]
 *   livepoint info   <file.dlvp>
 *   livepoint verify <file.dlvp> <trace-spec> [--spacing N] [--regions N]
 *   livepoint run    <trace-spec> [--livepoints F] [--spacing N]
 *                    [--regions N] [--confidence P] [--error E]
 *                    [--seed N] [--min-windows N] [--timings]
 *
 * `record` runs the full warm-up (Scout + Explorers) once and persists
 * every region's warm state. `info` prints the header and a per-window
 * summary without re-simulating anything. `verify` re-runs the warm-up
 * from the trace source and compares every window bit-for-bit — the CI
 * round-trip check. `run` executes the DeLorean method, resuming from
 * live-points when --livepoints is given (invalid files degrade to a
 * fresh warm-up with a warning) and early-stopping when --confidence
 * and --error are set; it prints the canonical TSV row on stdout and a
 * machine-greppable coverage line on stderr:
 *
 *   [livepoint] windows_replayed=R windows_total=T ci_error=E
 *
 * All numeric arguments use the strict batch parsers — junk or
 * overflow is a fatal error, never a silent zero.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "batch/error.hh"
#include "batch/plan.hh"
#include "batch/report_text.hh"
#include "checkpoint/livepoint.hh"
#include "core/delorean.hh"
#include "workload/trace_registry.hh"

namespace
{

using namespace delorean;

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: livepoint record <trace-spec> <out.dlvp> [options]\n"
        "       livepoint info   <file.dlvp>\n"
        "       livepoint verify <file.dlvp> <trace-spec> [options]\n"
        "       livepoint run    <trace-spec> [--livepoints F] "
        "[options]\n"
        "options: --spacing N --regions N (must match the recording)\n"
        "         --confidence P --error E --seed N --min-windows N\n"
        "         --timings (run only)\n"
        "%s\n",
        workload::traceSpecHelp());
    std::exit(1);
}

struct CliOptions
{
    std::vector<std::string> positional;
    core::DeloreanConfig config;
    bool timings = false;
};

std::uint64_t
parseCountArg(const char *text, const char *what)
{
    try {
        return batch::parseCount(text);
    } catch (const batch::BatchError &e) {
        fatal("%s: %s", what, e.what());
    }
    return 0;
}

unsigned
parseU32Arg(const char *text, const char *what)
{
    try {
        return batch::parseU32(text);
    } catch (const batch::BatchError &e) {
        fatal("%s: %s", what, e.what());
    }
    return 0;
}

double
parseRealArg(const char *text, const char *what)
{
    try {
        return batch::parseReal(text);
    } catch (const batch::BatchError &e) {
        fatal("%s: %s", what, e.what());
    }
    return 0;
}

CliOptions
parseCli(int argc, char **argv)
{
    CliOptions cli;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char * {
            fatal_if(i + 1 >= argc, "missing value for %s", arg.c_str());
            return argv[++i];
        };
        if (arg == "--spacing")
            cli.config.schedule.spacing =
                parseCountArg(next(), "--spacing");
        else if (arg == "--regions")
            cli.config.schedule.num_regions =
                parseU32Arg(next(), "--regions");
        else if (arg == "--confidence")
            cli.config.confidence = parseRealArg(next(), "--confidence");
        else if (arg == "--error")
            cli.config.target_error = parseRealArg(next(), "--error");
        else if (arg == "--seed")
            cli.config.window_seed = parseCountArg(next(), "--seed");
        else if (arg == "--min-windows")
            cli.config.min_windows =
                parseU32Arg(next(), "--min-windows");
        else if (arg == "--livepoints")
            cli.config.livepoint_file = next();
        else if (arg == "--timings")
            cli.timings = true;
        else if (!arg.empty() && arg[0] == '-')
            fatal("unknown option '%s'", arg.c_str());
        else
            cli.positional.push_back(arg);
    }
    cli.config.schedule.validate();
    fatal_if(cli.config.confidence >= 100.0,
             "--confidence must be below 100 (0 = exact mode)");
    return cli;
}

int
cmdRecord(const std::string &spec, const std::string &out,
          const core::DeloreanConfig &config)
{
    const auto file = checkpoint::recordLivePoints(spec, config);
    checkpoint::writeLivePointFile(out, file);
    std::printf("recorded %zu live-points of '%s' (key %s) to %s\n",
                file.windows.size(), file.workload.c_str(),
                file.key.hex().c_str(), out.c_str());
    return 0;
}

int
cmdInfo(const std::string &path)
{
    const auto file = checkpoint::readLivePointFile(path);
    std::printf("file         : %s\n", path.c_str());
    std::printf("workload     : %s\n", file.workload.c_str());
    std::printf("key          : %s\n", file.key.hex().c_str());
    std::printf("regions      : %u\n", file.schedule.num_regions);
    std::printf("spacing      : %llu\n",
                (unsigned long long)file.schedule.spacing);
    std::printf("#window\toffset\tkeys\tengaged\tback\tunresolved\t"
                "vicinity_samples\n");
    for (const auto &w : file.windows)
        std::printf("%u\t%llu\t%zu\t%u\t%zu\t%zu\t%llu\n", w.region,
                    (unsigned long long)w.warming_start,
                    w.warm.keys.keys.size(), w.warm.explored.engaged,
                    w.warm.explored.back_distance.size(),
                    w.warm.explored.unresolved.size(),
                    (unsigned long long)w.warm.explored.vicinity_samples);
    return 0;
}

int
cmdVerify(const std::string &path, const std::string &spec,
          const core::DeloreanConfig &config)
{
    const auto file = checkpoint::readLivePointFile(path);
    const auto key = checkpoint::livePointKey(spec, config);
    if (!(file.key == key)) {
        std::fprintf(stderr,
                     "verify FAILED: %s carries key %s, spec/config "
                     "derive %s\n",
                     path.c_str(), file.key.hex().c_str(),
                     key.hex().c_str());
        return 1;
    }
    const auto fresh = checkpoint::recordLivePoints(spec, config);
    if (fresh.windows.size() != file.windows.size()) {
        std::fprintf(stderr,
                     "verify FAILED: %s holds %zu windows, fresh "
                     "warm-up produced %zu\n",
                     path.c_str(), file.windows.size(),
                     fresh.windows.size());
        return 1;
    }
    for (std::size_t r = 0; r < file.windows.size(); ++r) {
        if (!(file.windows[r] == fresh.windows[r])) {
            std::fprintf(stderr,
                         "verify FAILED: %s window %zu diverges from a "
                         "fresh warm-up of '%s'\n",
                         path.c_str(), r, spec.c_str());
            return 1;
        }
    }
    std::printf("verify OK: %s matches a fresh warm-up of '%s' "
                "(%zu windows)\n",
                path.c_str(), spec.c_str(), file.windows.size());
    return 0;
}

int
cmdRun(const std::string &spec, const core::DeloreanConfig &config,
       bool timings)
{
    auto trace = workload::makeTrace(spec);
    sampling::MethodResult result;
    bool resumed = false;
    if (!config.livepoint_file.empty()) {
        try {
            const auto warm = checkpoint::loadForRun(
                spec, config, config.livepoint_file);
            result = core::DeloreanMethod::run(*trace, config, &warm);
            resumed = true;
        } catch (const checkpoint::CheckpointError &e) {
            // stdout carries the diffable TSV row; keep the warning on
            // stderr next to the [livepoint] coverage line.
            std::fprintf(stderr,
                         "warn: %s; falling back to a fresh warm-up\n",
                         e.what());
        }
    }
    if (!resumed)
        result = core::DeloreanMethod::run(*trace, config);

    batch::printResultHeaderTsv(stdout, timings);
    batch::printResultRowTsv(stdout, spec, "cli", "cli", "delorean",
                             result, timings);
    std::fprintf(stderr,
                 "[livepoint] windows_replayed=%llu windows_total=%llu "
                 "ci_error=%.17g resumed=%d\n",
                 (unsigned long long)result.windows_replayed,
                 (unsigned long long)result.windows_total,
                 result.ci_error, resumed ? 1 : 0);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    const std::string cmd = argv[1];
    try {
        const CliOptions cli = parseCli(argc, argv);
        const auto &pos = cli.positional;
        if (cmd == "record" && pos.size() == 2)
            return cmdRecord(pos[0], pos[1], cli.config);
        if (cmd == "info" && pos.size() == 1)
            return cmdInfo(pos[0]);
        if (cmd == "verify" && pos.size() == 2)
            return cmdVerify(pos[0], pos[1], cli.config);
        if (cmd == "run" && pos.size() == 1)
            return cmdRun(pos[0], cli.config, cli.timings);
    } catch (const std::exception &e) {
        fatal("%s", e.what());
    }
    usage();
}
