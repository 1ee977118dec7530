/**
 * @file
 * Shared pieces of the benchmark harness: options, sample statistics,
 * the run report, offline references, daemon handles and the span
 * recorder of the traced mode.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "proc.hh"
#include "sampling/results.hh"

namespace perfbench
{

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string bin_dir;  //!< directory holding batch_run, batch_service
    std::string work_dir; //!< scratch directory of this run (cwd)
    /** Test hook: corrupt one offline reference row, so the output
     *  checks must report failed operations. */
    bool wrong_reference = false;

    std::string batchRun() const { return bin_dir + "/batch_run"; }
    std::string batchService() const { return bin_dir + "/batch_service"; }
};

/** Latency samples; percentiles by nearest rank. */
struct Samples
{
    std::vector<double> v;

    void add(double x) { v.push_back(x); }
    std::size_t size() const { return v.size(); }
    double median() const;

    /**
     * The highest percentile with at least ten samples beyond it:
     * the (n-10)-th smallest sample. @p pct receives that percentile.
     * Requires n >= 11.
     */
    double tail(double *pct) const;
};

/** What a run reports: operations, failures and metrics. */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::pair<std::string, double>> metrics;

    void set(const std::string &name, double value);

    /** Count an operation; a false @p ok counts it failed. */
    void
    op(bool ok, std::uint64_t n = 1)
    {
        attempted += n;
        if (!ok)
            failed += n;
    }

    /** Count a failure and say why on stderr. */
    void fail(const std::string &why, std::uint64_t n = 1);

    /** Set NAME_p50_ms and NAME_tail_ms and print the sample count. */
    void latency(const std::string &name, const Samples &ms);
};

/** Simulated instructions of one cell on @p spacing x @p regions. */
inline double
scheduleInsts(std::uint64_t spacing, unsigned regions)
{
    return double(spacing) * double(regions);
}

/** Bytes of a DLRNTRC1 record: the trace-equivalent size of one
 *  simulated instruction, for stream_mb_per_s on every workload. */
constexpr double record_bytes = 32.0;

/** One canonical `batch_run run` TSV row for @p r (no newline). */
std::string tsvRow(const std::string &workload, const std::string &config,
                   const std::string &schedule, const std::string &method,
                   const delorean::sampling::MethodResult &r);

/** The result rows of `batch_run run` output (no header, no blanks). */
std::vector<std::string> tsvRows(const std::string &out);

/** "workload\tconfig\tschedule\tmethod" of a TSV row. */
std::string rowId(const std::string &row);

/** @p row with a CPI no run produces (the negative-test reference). */
std::string wrongCpi(const std::string &row);

/** Field @p i (0-based) of a TSV row, as a double. */
double rowField(const std::string &row, std::size_t i);

/** Offline reference rows of a batch_run, by rowId(). */
struct Reference
{
    std::map<std::string, std::string> rows;

    /** The row for (workload, config, schedule, method), or "". */
    std::string find(const std::string &workload, const std::string &config,
                     const std::string &schedule,
                     const std::string &method) const;
};

/**
 * Run `batch_run run <plan> --no-cache --threads <threads>` and
 * collect its rows into @p ref. With opt.wrong_reference the first
 * DeLorean row gets a wrong CPI. @return false on any failure.
 */
bool runReference(const Options &opt, const std::string &plan_path,
                  unsigned threads, Reference &ref);

/** Write @p text to @p path; throws on failure. */
void writeFile(const std::string &path, const std::string &text);

/** Read all of @p path; throws on failure. */
std::string readFile(const std::string &path);

/** Accuracy against SMARTS over matching DeLorean/SMARTS rows. */
struct Accuracy
{
    double cpi_err_sum = 0.0;
    double cpi_err_max = 0.0;
    double mpki_err_sum = 0.0;
    std::size_t cells = 0;

    void add(const std::string &delorean_row, const std::string &smarts_row);
    void report(Report &rep) const;
};

/**
 * A running batch_service process (daemon, coordinator or worker).
 * stop() shuts a socket-serving process down over the protocol; a
 * worker-only process is stopped with SIGTERM.
 */
struct Daemon
{
    pid_t pid = -1;
    std::string socket; //!< empty for worker-only processes

    /** Start @p args after `batch_service`; wait for the socket. */
    bool start(const Options &opt, const std::vector<std::string> &args,
               const std::string &socket_path, const std::string &log);

    /** Stop and reap; @return its exit info (max RSS). */
    ExitInfo stop();
};

/**
 * Span recorder of the traced mode. Spans nest per thread; a span's
 * self time is its duration minus its children's.
 */
class Tracer
{
  public:
    /** Open a span named @p name under the innermost open span. */
    void begin(const std::string &name);
    void end();

    /** Summed duration of every span named @p name, in ms. */
    double totalMs(const std::string &name) const;

    /** Summed self time of all spans, in ms. */
    double allSelfMs() const;

  private:
    struct Open
    {
        std::string name;
        double start;
        double child_s = 0.0;
    };
    struct Totals
    {
        double self_s = 0.0;
        double total_s = 0.0;
    };
    std::vector<Open> stack_;
    std::map<std::string, Totals> totals_;
};

/** RAII span. */
class Span
{
  public:
    Span(Tracer &t, const std::string &name) : t_(t) { t_.begin(name); }
    ~Span() { t_.end(); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &t_;
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
