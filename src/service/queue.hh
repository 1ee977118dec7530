/**
 * @file
 * JobQueue: the one cell scheduler behind both DLRNSRV1 front ends.
 *
 * A *job* is one submitted manifest (socket SUBMIT or spool pickup).
 * Its cells are keyed by their content cache key (batch/cache_key.hh),
 * which gives two layers of dedupe, both applied at submit:
 *
 *  - across time, the persistent ResultCache: a cell whose key is
 *    already cached completes on the spot, without simulating;
 *  - across concurrent submitters, this queue: a cell whose key is
 *    already pending (queued *or running*) attaches to it instead of
 *    enqueuing a second execution, and the one result fans out to
 *    every waiting job.
 *
 * The remaining fresh cells are packed into co-schedulable work units
 * by batch::planWorkUnits, the same units batch_run executes, so every
 * front end runs identical groupings. Two front ends drain the queue:
 * the batch daemon's threads pop() and run units in process
 * (service/service.hh), and the fleet coordinator tryPop()s them into
 * leases for remote workers (service/coordinator.hh), requeue()ing an
 * expired lease's still-unresolved members.
 *
 * Pop order is highest priority first, FIFO within a priority (a
 * monotonic sequence number breaks ties), so interactive socket
 * submissions overtake bulk spool pickups. Attaching never changes a
 * unit's priority: the slot it occupies was already paid for by the
 * first submitter.
 *
 * A unit trades latency for work: its cells share one trace decode
 * but run on one thread. So pop() splits a unit when more drain
 * threads sit idle than there are queued units to feed them: the
 * popper keeps its share of the members and puts the rest back in
 * the unit's place for the next idle thread. A busy daemon runs units
 * whole; an idle one spreads a multi-config job over its threads.
 * Any subset of a unit is a valid group, so results are unchanged.
 * tryPop() never splits: a fleet lease carries a whole unit.
 *
 * All methods are thread-safe. pop() blocks until a unit or close();
 * after close() pops drain nothing further (queued-but-unstarted units
 * are abandoned — their manifests stay in the spool for the next
 * serve), while units already popped finish normally and complete()
 * still fans out, which is exactly the "drain in-flight cells"
 * shutdown contract.
 */

#ifndef DELOREAN_SERVICE_QUEUE_HH
#define DELOREAN_SERVICE_QUEUE_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "batch/plan.hh"
#include "batch/result_cache.hh"
#include "service/protocol.hh"

namespace delorean::service
{

/** Where a job came from (affects default priority and reporting). */
enum class JobSource
{
    Socket,
    Spool,
};

/** Public snapshot of one job's progress. */
struct JobStatus
{
    std::uint64_t id = 0;
    std::string name;           //!< manifest path or client-given tag
    JobSource source = JobSource::Socket;
    int priority = 0;
    std::size_t cells = 0;
    std::size_t done = 0;       //!< completed cells (ok or failed)
    std::size_t failed = 0;     //!< cells whose execution threw
    std::string first_error;    //!< first failure message, if any

    bool complete() const { return done == cells; }
    const char *state() const
    {
        if (!complete())
            return done == 0 ? "queued" : "running";
        return failed == 0 ? "done" : "failed";
    }
};

/**
 * Render @p status as its canonical STATUS line (plus the indented
 * `error:` line when a diagnostic exists). One formatter for the
 * single-host service and the fleet coordinator, so clients parsing
 * the state= token (ServiceClient::jobDone) see one format.
 */
std::string jobStatusLine(const JobStatus &status);

/**
 * Parse jobStatusLine() text back into a JobStatus — the typed side
 * of the reply grammar (docs/service.md, "Reply grammar"). Strict:
 * job=, state=, cells= and done= are required, the state token must
 * agree with the state the parsed counters imply (a job name that
 * *contains* "state=done" cannot spoof completion), and name=
 * captures the rest of the line — every earlier token is space-free,
 * so the first " name=" marker is the genuine one. An indented
 * "  error: " second line restores first_error. Round-trips:
 * jobStatusLine(parseJobStatusLine(text)) == text for any text
 * jobStatusLine produced. Throws ServiceError on malformed text.
 */
JobStatus parseJobStatusLine(const std::string &text);

/**
 * A submitted job's immutable input, shared by every unit it owns.
 */
struct JobInput
{
    batch::BatchPlan plan;
    std::string manifest; //!< source text; fleet leases re-send it
};

/**
 * One co-scheduled group of a job's cells (batch::planWorkUnits): what
 * a drain thread runs or a fleet lease carries. Popped units hold only
 * members whose keys are still unresolved.
 */
struct WorkUnit
{
    std::uint64_t job = 0; //!< owning (first-submitter) job
    std::shared_ptr<const JobInput> input;
    std::vector<std::size_t> indices; //!< into input->plan.cells()
    int priority = 0;
    std::uint64_t seq = 0; //!< FIFO tiebreak within a priority

    std::size_t size() const { return indices.size(); }
    const batch::BatchCell &cell(std::size_t i) const
    {
        return input->plan.cells()[indices[i]];
    }
    std::vector<const batch::BatchCell *> cells() const;
};

/** How addJob registers a job. */
struct JobSpec
{
    std::string name = "socket"; //!< manifest path or client tag
    JobSource source = JobSource::Socket;
    int priority = 0;
    /**
     * Manifest file to move once the job finishes; empty for socket
     * jobs. It travels *with* the job because a fast worker can
     * complete every cell before the submitting thread regains the
     * CPU — any register-after-submit scheme is a lost race.
     */
    std::string spool_path;
    std::string manifest;     //!< source text (see JobInput)
    std::uint64_t client = 0; //!< submitting connection (fleet quota)
};

/** How one resolved cell turned out. */
struct Resolution
{
    bool ok = true;
    bool executed = false; //!< simulated (false = served from a cache)
    std::string error;     //!< diagnostic when !ok
};

/** A job that just reached done == cells. */
struct FinishedJob
{
    JobStatus status;
    std::uint64_t executed = 0; //!< cells this job's units simulated
    std::uint64_t cached = 0;   //!< cells served by cache or dedupe
    std::string spool_path;     //!< manifest to move; empty for socket
};

/** addJob's refusal when the ready backlog would pass its ceiling. */
class QueueFull : public ServiceError
{
  public:
    using ServiceError::ServiceError;
};

class JobQueue
{
  public:
    /**
     * Completed jobs retained for STATUS queries. A long-running
     * daemon sees an unbounded stream of jobs; without eviction the
     * records (and the global STATUS reply built from them) would
     * grow forever. Active jobs are never evicted; the oldest
     * *finished* ones are, after which their ids report as unknown.
     */
    static constexpr std::size_t max_finished_jobs = 1000;

    /** Aggregate counters for STATUS/STATS. */
    struct Counters
    {
        std::uint64_t jobs_submitted = 0;
        std::uint64_t jobs_completed = 0;
        std::uint64_t jobs_failed = 0;
        std::uint64_t cells_enqueued = 0; //!< cells placed in new units
        std::uint64_t cells_deduped = 0;  //!< attached to pending keys
        std::uint64_t cells_cached = 0;   //!< cache hits at submit
        std::uint64_t units_enqueued = 0; //!< units formed at submit
        std::uint64_t units_queued = 0;   //!< units awaiting a pop
        std::uint64_t queue_depth = 0;    //!< cells in queued units
        std::uint64_t running = 0;        //!< popped cells in flight
    };

    /**
     * @p cache classifies cells at submit: a cell already cached
     * completes on the spot. @p max_queued_units caps the units
     * awaiting a pop; a SUBMIT that would pass it is refused whole
     * (QueueFull).
     */
    explicit JobQueue(const batch::ResultCache &cache,
                      std::size_t max_queued_units = SIZE_MAX);

    /** addJob's answer. */
    struct Admission
    {
        std::uint64_t job = 0;
        /** Set when every cell was cached: the job finished at once. */
        std::optional<FinishedJob> finished;
    };

    /**
     * Register @p plan as one job. Each cell is classified: a key
     * already pending (queued or running, for any job, or earlier in
     * this plan) attaches to it; else a cached key completes now;
     * else the cell is fresh. Fresh cells form new units through
     * batch::planWorkUnits. Classification happens before anything is
     * registered, so a QueueFull refusal leaves no trace. Plans are
     * never empty (BatchPlan rejects zero workloads), so every job
     * completes. Throws ServiceError once closed.
     */
    Admission addJob(const batch::BatchPlan &plan, JobSpec spec);

    /**
     * Block until a unit is available or the queue is closed. The
     * unit may be the caller's share of a split one (see above).
     * @return nullopt only after close() with nothing left to pop.
     */
    std::optional<WorkUnit> pop();

    /** Non-blocking pop (fleet leases); nullopt when none is ready. */
    std::optional<WorkUnit> tryPop();

    /**
     * Record the outcome of a popped unit's members (@p results is
     * parallel to unit.indices) and fan each out to every waiting
     * job. @return the jobs that just completed, for the caller to
     * act on (move spool manifests, fold cache run counters) outside
     * the lock.
     */
    std::vector<FinishedJob> complete(const WorkUnit &unit,
                                      const std::vector<Resolution> &results);

    /**
     * Resolve one pending key outside any popped unit: a late result
     * whose unit was already re-queued. No-op unless pending.
     */
    std::vector<FinishedJob> resolve(const batch::CacheKey &key,
                                     const Resolution &result);

    /**
     * Put a popped unit back (an expired fleet lease) with only its
     * still-unresolved members, at its original priority and place.
     */
    void requeue(const WorkUnit &unit);

    /** Whether @p key awaits a result (queued or running). */
    bool pending(const batch::CacheKey &key) const;

    /** Wake every blocked pop() and refuse further work. */
    void close();

    bool closed() const;

    /** Snapshot of one job; nullopt for unknown ids. */
    std::optional<JobStatus> job(std::uint64_t id) const;

    /** Snapshots of every job, submission order. */
    std::vector<JobStatus> jobs() const;

    /** Incomplete jobs submitted by @p client. */
    std::size_t inFlight(std::uint64_t client) const;

    Counters counters() const;

  private:
    struct JobRecord
    {
        JobStatus status;
        std::uint64_t executed = 0;
        std::uint64_t cached = 0;
        std::string spool_path;
        std::uint64_t client = 0;
    };

    void pushUnitLocked(WorkUnit unit);
    std::optional<WorkUnit> popLocked();
    void splitForIdleLocked(WorkUnit &unit);
    void resolveLocked(const std::string &hex, const Resolution &result,
                       std::vector<FinishedJob> &finished);
    void finishLocked(JobRecord &job, std::vector<FinishedJob> &finished);

    const batch::ResultCache &cache_;
    const std::size_t max_queued_units_;

    mutable std::mutex mutex_;
    std::condition_variable ready_;
    bool closed_ = false;
    std::size_t idle_ = 0; //!< threads blocked in pop()
    std::uint64_t next_job_ = 1;
    std::uint64_t next_seq_ = 0;
    Counters counters_;

    /**
     * Pending keys by hex: every job waiting on the key, first-owner
     * first (a job appears once per cell it has with that key).
     * Presence *is* the "needs a result" state; a key belongs to
     * exactly one queued or popped unit.
     */
    std::unordered_map<std::string, std::vector<std::uint64_t>> pending_;
    /** Queued units, highest priority first (FIFO within). */
    std::vector<WorkUnit> heap_;

    std::unordered_map<std::uint64_t, JobRecord> jobs_;
    /** Submission order; may hold evicted ids until compacted. */
    std::deque<std::uint64_t> job_order_;
    /** Completion order — the eviction queue. */
    std::deque<std::uint64_t> finished_order_;
    /** Incomplete jobs per submitter (see inFlight). */
    std::unordered_map<std::uint64_t, std::size_t> in_flight_;
};

} // namespace delorean::service

#endif // DELOREAN_SERVICE_QUEUE_HH
