/**
 * @file
 * BatchService: the long-running batch daemon.
 *
 * PR 3's `batch_run` is one-shot: parse a plan, run its cells, exit —
 * fine for a laptop sweep, wasteful at fleet scale where thousands of
 * (workload, config, method) cells arrive continuously and most of
 * them are already cached. The service keeps the machinery resident
 * and accepts work from two directions:
 *
 *  - a spool directory watched by ManifestWatcher (drop a `.plan`
 *    file, collect it from `done/`), for bulk producers;
 *  - a Unix-domain socket speaking DLRNSRV1 (service/protocol.hh),
 *    for interactive clients (`tools/batch_service`).
 *
 * Both feed one JobQueue (service/queue.hh) — the scheduler the fleet
 * coordinator leases from too — whose work units drain on a
 * ThreadPool: each thread loops pop → BatchRunner::runUnitCached
 * (serve cached members, co-schedule the misses, store) → fan the
 * results out to every waiting job. The batch layer's guarantees carry
 * over unchanged, because the service runs the same units (or, on an
 * idle daemon, subsets of them — any subset is a valid group), content
 * keys and result serialization as batch_run: a RESULT fetch returns
 * bytes that parse into a MethodResult equal (operator==, doubles
 * bitwise) to a local run, with the producing run's measured phase
 * timings riding along.
 *
 * Shutdown (SHUTDOWN request or requestShutdown()) is graceful: stop
 * accepting, stop scanning, abandon queued-but-unstarted units (their
 * manifests stay in the spool for the next serve), finish in-flight
 * cells and store their results before run() returns.
 */

#ifndef DELOREAN_SERVICE_SERVICE_HH
#define DELOREAN_SERVICE_SERVICE_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "batch/result_cache.hh"
#include "sampling/region.hh"
#include "service/protocol.hh"
#include "service/queue.hh"
#include "service/stream.hh"
#include "service/watcher.hh"

namespace delorean::service
{

struct ServiceConfig
{
    std::string socket_path;    //!< required
    std::string spool_dir;      //!< empty = no manifest watcher
    std::string cache_dir;      //!< empty = ResultCache::defaultDir()
    unsigned threads = 1;       //!< worker count (0 = hardware)
    unsigned poll_ms = 200;     //!< spool scan period
    bool verbose = false;       //!< per-event progress on stderr

    /**
     * Windows fanned out per TRACE-STREAM feed (0 = hardware).
     * Results are bit-identical for every value (core/parallel.hh),
     * so this is purely a latency knob for appends that complete
     * several windows at once.
     */
    unsigned stream_threads = 1;

    /**
     * Poll period for server-side tailing of a growing trace file
     * (STREAM-OPEN with a "tail=<path>" first line). Each poll
     * ingests only bytes that already existed at the *previous* poll
     * — the same stability gate the manifest watcher applies — so a
     * recorder's half-written tail is never fed.
     */
    unsigned tail_poll_ms = 200;
};

/**
 * Spool pickups enqueue below protocol::default_submit_priority so
 * interactive submits overtake bulk work.
 */
constexpr int spool_priority = 0;

class BatchService
{
  public:
    /**
     * Validate the config and open the cache. Throws ServiceError /
     * BatchError on an empty socket path or unusable directories.
     */
    explicit BatchService(ServiceConfig config);

    /**
     * Serve until shutdown: start workers, watcher and server, block,
     * then drain. Callable once per instance.
     */
    void run();

    /** Trigger the same graceful shutdown a SHUTDOWN request does. */
    void requestShutdown();

    /** The queue's counters (testing / STATS). */
    JobQueue::Counters counters() const { return queue_.counters(); }

    /** Cells this process simulated (closed streams included) /
     *  served from cache (lifetime). */
    std::uint64_t cellsExecuted() const
    {
        return executed_.load() + streams_.counters().closed;
    }
    std::uint64_t cellsFromCache() const
    {
        return queue_.counters().cells_cached + cache_hits_.load();
    }

    const batch::ResultCache &cache() const { return cache_; }

  private:
    /**
     * Dispatch one request. Called concurrently from the server's
     * connection threads; everything it touches (queue, cache,
     * atomics, watcher counters) is thread-safe by construction.
     */
    protocol::Reply handle(const protocol::Request &request);

    protocol::Reply handleSubmit(const std::string &body);
    protocol::Reply handleStatus(const std::string &body);
    protocol::Reply handleStats();

    /** Worker-thread body: pop/execute/complete until closed. */
    void drainLoop();

    /**
     * Execute @p cells (a popped unit's members, owned by @p job)
     * through BatchRunner::runUnitCached. A failure is confined to the
     * cells it belongs to, as if each had run alone.
     */
    std::vector<Resolution>
    runMembers(std::uint64_t job,
               const std::vector<const batch::BatchCell *> &cells);

    /**
     * Execution-time identity of a file-backed workload, memoized per
     * owning job — the same once-per-plan cost BatchRunner::run pays
     * for its mid-run re-record guard, instead of re-digesting a big
     * trace for every executed cell of a multi-config job. Entries
     * die with the job, so the daemon's guard window stays job-sized.
     */
    batch::CacheKey workloadIdentityFor(std::uint64_t job,
                                        const std::string &spec);

    /** Act on jobs that just completed (spool moves, run counters). */
    void finishJobs(const std::vector<FinishedJob> &finished);

    ServiceConfig config_;
    batch::ResultCache cache_;
    /** Lives as long as the daemon: a profile served under several
     *  configs, in any number of jobs, is fast-forwarded once. */
    sampling::CheckpointMemo memo_;
    JobQueue queue_;
    std::unique_ptr<ManifestWatcher> watcher_; //!< null without spool
    /** TRACE-STREAMs, fed in-process under <cache>/streams. */
    StreamHost streams_;

    std::atomic<std::uint64_t> executed_{0};
    std::atomic<std::uint64_t> cache_hits_{0}; //!< hits at drain time

    std::mutex shutdown_mutex_;
    std::condition_variable shutdown_cv_;
    bool shutdown_ = false;

    /** Per-job workload identities (guarded by identity_mutex_). */
    std::mutex identity_mutex_;
    std::unordered_map<std::uint64_t,
                       std::unordered_map<std::string, batch::CacheKey>>
        identities_;
};

} // namespace delorean::service

#endif // DELOREAN_SERVICE_SERVICE_HH
