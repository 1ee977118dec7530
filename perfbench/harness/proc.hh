/**
 * @file
 * Child processes of the benchmark: the shipped binaries (batch_run,
 * batch_service) run as separate processes, exactly as a user runs
 * them. Every child is registered so that any exit path of the
 * harness kills and reaps it; peak RSS comes from wait4().
 */

#ifndef PERFBENCH_PROC_HH
#define PERFBENCH_PROC_HH

#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench
{

/** How a reaped child ended. */
struct ExitInfo
{
    bool exited = false; //!< reaped (false: timed out and killed)
    int status = -1;     //!< exit code, or -1 for a signal
    double max_rss_mib = 0.0;
};

/** One stderr line and the steady-clock second it was read at. */
struct StampedLine
{
    double t = 0.0;
    std::string text;
};

/** Everything a finished foreground run produced. */
struct RunOutput
{
    ExitInfo exit;
    double start = 0.0; //!< steady-clock seconds at launch
    double end = 0.0;   //!< steady-clock seconds when stdout closed
    std::string out;
    std::vector<StampedLine> err;
};

/** Steady-clock seconds. */
double now();

/** Sleep for @p seconds (sub-millisecond resolution). */
void sleepFor(double seconds);

/**
 * Start @p argv (argv[0] a path) with stdout/stderr appended to
 * @p log (empty: /dev/null). The child is registered for cleanup.
 */
pid_t spawnDetached(const std::vector<std::string> &argv,
                    const std::string &log);

/** Wait up to @p timeout_s for @p pid; kill it on timeout. */
ExitInfo reap(pid_t pid, double timeout_s);

/**
 * Run @p argv to completion, capturing stdout and time-stamping each
 * stderr line as it arrives. Kills the child after @p timeout_s.
 */
RunOutput runCapture(const std::vector<std::string> &argv,
                     double timeout_s);

/** Kill and reap every registered child (idempotent). */
void killAll();

/**
 * Run killAll() at exit and ignore SIGPIPE. A signal that kills the
 * harness reaches its children too: run.py starts the harness in its
 * own process group and kills the group on timeout.
 */
void installCleanup();

} // namespace perfbench

#endif // PERFBENCH_PROC_HH
