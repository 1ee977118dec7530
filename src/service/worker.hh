/**
 * @file
 * WorkerLoop: the pull side of the fleet coordinator protocol.
 *
 * Each worker thread runs an independent LEASE → execute → COMPLETE
 * loop against one coordinator socket (service/coordinator.hh):
 *
 *  1. LEASE pulls a work unit: lease id, deadline, the owning job's
 *     manifest text, plus the unit's cell indices and content keys.
 *  2. The worker re-expands the manifest with the same BatchPlan code
 *     the coordinator used and verifies each leased cell's key matches
 *     the key the lease carries. A mismatch (a file-backed workload
 *     changed between submit and lease) COMPLETEs with status=error
 *     instead of publishing results under a stale key.
 *  3. The lease is RENEWed once, then the unit runs through
 *     batch::BatchRunner::runUnitCached — the execution step the
 *     single-host daemon uses too: cells already in the worker's
 *     *local* result cache are served from it, the rest co-schedule
 *     exactly as a local batch_run would, which is half of the fleet's
 *     bit-identity guarantee.
 *  4. COMPLETE returns the serialized records in unit order (chunked
 *     past the frame cap by the protocol layer).
 *
 * Workers also execute *stream* leases (docs/service.md, "Stream
 * migration"): when no work unit is available, STREAM-LEASE may hand
 * out a window range of a fleet-hosted TRACE-STREAM. The worker
 * resumes from the stream's committed DLRNLVP1 prefix (instead of
 * re-warming from byte zero), feeds the leased windows from the
 * shared spool file, and STREAM-HANDOFFs either a longer prefix or —
 * on a finish lease — the final serialized MethodResult. Because warm
 * state is a pure function of trace bytes + config, a migrated
 * stream's final result is bit-identical to an unmigrated one.
 *
 * An idle coordinator ("none") backs off with pollBackoffMs. stop()
 * finishes in-flight units and COMPLETEs them; kill() abandons them —
 * the lease expires and the coordinator re-queues, which is the fault
 * the fleet tests inject.
 */

#ifndef DELOREAN_SERVICE_WORKER_HH
#define DELOREAN_SERVICE_WORKER_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "batch/result_cache.hh"
#include "service/client.hh"

namespace delorean::service
{

struct WorkerConfig
{
    std::string coordinator; //!< coordinator socket path (required)
    std::string cache_dir;   //!< empty = ResultCache::defaultDir()
    unsigned threads = 1;    //!< concurrent pull loops
    /** Idle backoff band: pollBackoffMs(attempt, idle_ms, 8*idle_ms). */
    unsigned idle_ms = 100;
    std::string name;        //!< reported with each LEASE
    bool verbose = false;
};

class WorkerLoop
{
  public:
    struct Counters
    {
        std::uint64_t units_completed = 0;
        std::uint64_t units_failed = 0;   //!< COMPLETEd status=error
        std::uint64_t cells_executed = 0;
        std::uint64_t cells_from_cache = 0; //!< worker-local hits
        std::uint64_t stream_leases_completed = 0;
        std::uint64_t stream_leases_failed = 0;
        /** Windows this worker Scout+Explorer-warmed (not resumed from
         *  a prefix) — the no-migration control test sums this across
         *  workers to prove no window is ever warmed twice. */
        std::uint64_t windows_warmed = 0;
    };

    /** Validate the config and open the cache. Throws ServiceError. */
    explicit WorkerLoop(WorkerConfig config);
    ~WorkerLoop(); //!< stop()s if still running

    WorkerLoop(const WorkerLoop &) = delete;
    WorkerLoop &operator=(const WorkerLoop &) = delete;

    /** Launch the pull threads. Callable once. */
    void start();

    /** Graceful: finish and COMPLETE in-flight units, then join. */
    void stop();

    /**
     * Crash simulation: abandon in-flight units (their COMPLETEs are
     * never sent, so the leases expire and re-queue), then join. The
     * fault the multi-worker harness injects mid-plan.
     */
    void kill();

    Counters counters() const;

  private:
    void pullLoop(unsigned thread_index);

    /**
     * Execute one stream lease end to end: resume from the committed
     * prefix, feed windows [from, to), hand off a longer prefix or the
     * final result. Execution failures turn into an error handoff;
     * transport failures (ServiceError) propagate to pullLoop's
     * reconnect path.
     */
    void runStreamLease(ServiceClient &client,
                        const ServiceClient::StreamLeaseInfo &lease,
                        const std::string &name);

    WorkerConfig config_;
    batch::ResultCache cache_;

    std::atomic<bool> started_{false};
    std::atomic<bool> stop_{false};
    std::atomic<bool> killed_{false};
    std::atomic<std::uint64_t> units_completed_{0};
    std::atomic<std::uint64_t> units_failed_{0};
    std::atomic<std::uint64_t> cells_executed_{0};
    std::atomic<std::uint64_t> cells_from_cache_{0};
    std::atomic<std::uint64_t> stream_leases_completed_{0};
    std::atomic<std::uint64_t> stream_leases_failed_{0};
    std::atomic<std::uint64_t> windows_warmed_{0};
    std::vector<std::thread> threads_;
};

} // namespace delorean::service

#endif // DELOREAN_SERVICE_WORKER_HH
