/**
 * @file
 * StreamHost: the one TRACE-STREAM front end, shared by the batch
 * daemon and the fleet coordinator.
 *
 * A client opens a stream with batch-manifest directives (config/
 * schedule/methods — no workload line: the workload is the trace
 * being streamed), then appends the raw bytes of a DLRNTRC1 trace in
 * arbitrary chunks. The host spools the bytes to a trace file
 * (TraceSpool). Window r only ever reads the trace up to regionEnd(r)
 * = spacing * (r + 1) (core/session.hh), so it is feedable once that
 * many records are spooled. Who feeds it is the window source:
 *
 *  - Local (the daemon): a resumable DeloreanSession, fed before the
 *    APPEND replies. STATUS reads its estimate, CLOSE finishes it.
 *  - Leased (the coordinator): fleet workers lease window ranges,
 *    resume from the committed DLRNLVP1 prefix and hand back a longer
 *    prefix or the final result. STATUS reads the last handoff's
 *    estimate, CLOSE waits for the finish handoff.
 *
 * Closing requires exactly the bytes the stream's own DLRNTRC1 header
 * declared (a mid-record tail or a shortfall is an error and leaves
 * the stream open). The spool file is *byte-identical* to the trace
 * the client read at all times — partial reads go through
 * TraceReader's limit_records prefix mode instead of rewriting the
 * header — so the close key, batch::cellKey("file:<spool>",
 * "delorean", config), equals the key an offline `batch_run` computes
 * for the original file (workload identity is content, not path), and
 * the cached final MethodResult is bit-identical to the offline run
 * over the same bytes (pinned by tests/test_service.cc and the CI
 * stream-smoke job).
 *
 * Everything a peer controls is validated with ServiceError before it
 * can reach a fatal() path: the directives must describe exactly one
 * exact-mode delorean cell, the header must be a well-formed DLRNTRC1
 * header long enough for the schedule, and record bytes past the
 * declared count are an overflow error. A TraceError from garbage
 * record bytes surfaces on the append that feeds the poisoned window
 * (Local) or fails the worker's lease and is reported at the next
 * request (Leased); either way the host then discards the stream.
 */

#ifndef DELOREAN_SERVICE_STREAM_HH
#define DELOREAN_SERVICE_STREAM_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "batch/result_cache.hh"
#include "core/session.hh"
#include "service/protocol.hh"

namespace delorean::service
{

/**
 * Parse and vet STREAM-OPEN directives into the one exact-mode
 * delorean config a stream runs. Shared by the host and the fleet
 * workers resuming leased windows, so both expand the byte-identical
 * configuration. Throws
 * ServiceError on anything a session would fatal() on.
 */
core::DeloreanConfig streamConfig(std::uint64_t id,
                                  const std::string &directives,
                                  unsigned host_threads);

/** Format MRC points as the wire token value "bytes:ratio,...". */
std::string
formatMrcPoints(const std::vector<std::pair<std::uint64_t, double>> &mrc);

/**
 * The byte-ingestion half of a stream: validate the DLRNTRC1 header,
 * spool complete records to a trace file (mid-record splits buffer
 * until their record completes), police the declared record count and
 * the protocol's total stream ceiling. The spool file stays
 * byte-identical to the streamed prefix at all times; readers use
 * TraceReader's limit_records mode to replay it while it grows.
 */
class TraceSpool
{
  public:
    /**
     * Create the spool at @p path. @p min_records rejects headers
     * declaring fewer records than the schedule needs (at parse time,
     * not at the first starved feed). Throws ServiceError.
     */
    TraceSpool(std::uint64_t id, std::string path,
               std::uint64_t min_records);

    /** Removes the spool file. */
    ~TraceSpool();

    TraceSpool(const TraceSpool &) = delete;
    TraceSpool &operator=(const TraceSpool &) = delete;

    /**
     * Ingest the next chunk — any split, including mid-header and
     * mid-record. Throws ServiceError on malformed headers or
     * overflow past the declared record count.
     */
    void append(const std::string &bytes);

    /** Flush spooled bytes so an independent reader sees them. */
    void flush();

    const std::string &path() const { return path_; }
    bool headerDone() const { return header_done_; }
    std::uint64_t records() const { return records_; }
    std::uint64_t received() const { return received_; }

    /** Every declared record spooled, nothing dangling. */
    bool complete() const
    {
        return header_done_ && pending_.empty() && records_ == declared_;
    }

    /** Throw the precise close-time diagnostic unless complete(). */
    void requireComplete() const;

  private:
    /** Try to complete header parsing from pending_. */
    void parseHeader();

    /** Move complete records from pending_ to the spool file. */
    void spoolRecords();

    std::uint64_t id_;
    std::string path_;
    std::uint64_t min_records_;

    std::ofstream out_;
    std::string pending_;          //!< bytes not yet spooled
    bool header_done_ = false;
    std::uint64_t header_bytes_ = 0;   //!< fixed header + name length
    std::uint64_t declared_ = 0;       //!< header's inst_count
    std::uint64_t records_ = 0;        //!< complete records spooled
    std::uint64_t received_ = 0;       //!< total bytes ingested
};

/** Who advances a hosted stream's windows; the owner picks one. */
enum class WindowSource
{
    /** Feed a DeloreanSession in-process before APPEND replies. */
    Local,
    /** Spool only; fleet workers advance leased window ranges. */
    Leased,
};

/**
 * The TRACE-STREAM front end: every open stream, its spool, and the
 * STREAM-OPEN / STREAM-APPEND / STATUS stream= / STREAM-CLOSE replies.
 * The window source (file comment) is called after an append, for
 * STATUS and at CLOSE, and is the only thing its owners differ in.
 *
 * Locking: the owner's lock, then the stream map, then one stream.
 * The host never calls into its owner. A stream's lock serializes its
 * requests, so a long window feed never blocks other streams. A
 * discarded stream is marked dead under its lock and leaves the map
 * afterwards; requests that were waiting for it see an unknown id.
 */
class StreamHost
{
  public:
    struct Options
    {
        std::string spool_dir;   //!< spool files live here
        WindowSource source = WindowSource::Local;
        unsigned host_threads = 1; //!< Local feeds' window fan-out
        unsigned tail_poll_ms = 200; //!< tail= follower poll period
        const char *tag = "service"; //!< verbose log prefix
        bool verbose = false;
    };

    /** Lifetime totals (the coordinator reports them). */
    struct Counters
    {
        std::uint64_t opened = 0;
        std::uint64_t closed = 0;   //!< results stored at CLOSE
        std::uint64_t windows = 0;  //!< Leased: windows committed
        std::uint64_t finished = 0; //!< Leased: finish handoffs taken
        std::uint64_t failed = 0;   //!< Leased: failed by a worker
    };

    /** Closed streams' results are stored in @p cache. */
    StreamHost(batch::ResultCache &cache, Options options)
        : cache_(cache), options_(std::move(options))
    {}

    /** stop(), then reclaim every open stream's files. */
    ~StreamHost() { stop(); }

    /**
     * STREAM-OPEN: an optional "tail=<path>" first line, then the
     * directives (streamConfig). Tail mode follows the growing file
     * at <path> on a host thread instead of taking APPENDs.
     */
    protocol::Reply open(const std::string &body);

    /** STREAM-APPEND "stream=<id>\n<bytes>". A malformed header,
     *  overflow or garbage record discards the stream. */
    protocol::Reply append(const std::string &body);

    /** STATUS "stream=<id>": the running estimate as one
     *  "stream=<id> records= ... complete=0|1[ mrc=...]" line. */
    protocol::Reply status(const std::string &body);

    /** STREAM-CLOSE "stream=<id>": store the result under the key an
     *  offline plan computes for the same bytes. An incomplete
     *  stream stays open. */
    protocol::Reply close(const std::string &body);

    /** Stop and join the tail followers; wake closes that wait for a
     *  handoff. Idempotent; later opens tail for one poll at most. */
    void stop();

    Counters counters() const;

    // ---- the Leased source's back end (STREAM-LEASE / HANDOFF) ----

    /** A window range of one stream, leased to a worker. */
    struct Grant
    {
        std::uint64_t stream = 0;
        bool finish = false;
        /** The STREAM-LEASE reply after its lease= deadline-ms=
         *  tokens (grammar in docs/service.md). */
        std::string reply;
    };

    /** The first stream with leasable windows, now held by @p lease
     *  of @p worker. Streams busy with an append are skipped, not
     *  waited for. */
    std::optional<Grant> grant(std::uint64_t lease,
                               const std::string &worker);

    /** @p lease ended without a handoff: its stream is leasable. */
    void release(std::uint64_t stream, std::uint64_t lease);

    /**
     * Commit the STREAM-HANDOFF @p body sent under @p lease of
     * @p stream (0 names no stream: acked as discarded). @p expired
     * marks a zombie's handoff, @p finish a finish lease. A prefix
     * file that is not committed is deleted. @return the ack reply;
     * throws ServiceError for a handoff to reject, and the stream
     * stays leasable.
     */
    protocol::Reply handoff(std::uint64_t stream, std::uint64_t lease,
                            bool expired, bool finish,
                            const std::string &body);

  private:
    struct Stream;
    struct Estimate;
    class Windows;
    class LocalWindows;
    class LeasedWindows;

    /** @return stream @p id, or null. */
    std::shared_ptr<Stream> find(std::uint64_t id) const;

    /** Stream @p id, locked for a request. Throws for an unknown or
     *  dead id, and reports (and discards) a failed stream. */
    std::pair<std::shared_ptr<Stream>, std::unique_lock<std::mutex>>
    acquire(std::uint64_t id);

    /** Mark @p s dead, unlock it, drop it from the map. */
    void discard(Stream &s, std::unique_lock<std::mutex> &lock);

    struct Ingested
    {
        std::string reply;
        bool complete = false;
    };

    /** Spool @p bytes into stream @p id and advance its windows: the
     *  path APPENDs and tail followers share. */
    Ingested ingest(std::uint64_t id, const std::string &bytes);

    /** Follow the growing trace at @p path into stream @p id. */
    void tailLoop(std::uint64_t id, const std::string &path);

    /** Sleep one tail poll; false once stop() was called. */
    bool pause();

    void log(const char *format, ...) const
        __attribute__((format(printf, 2, 3)));

    batch::ResultCache &cache_;
    const Options options_;

    std::atomic<bool> stopping_{false}; //!< outlives every stream
    std::atomic<std::uint64_t> next_id_{0};
    mutable std::mutex map_mutex_;
    std::map<std::uint64_t, std::shared_ptr<Stream>> streams_;

    std::atomic<std::uint64_t> opened_{0}, closed_{0}, windows_{0},
        finished_{0}, failed_{0};

    std::mutex stop_mutex_; //!< guards tailers_ and the poll sleeps
    std::condition_variable stop_cv_;
    std::vector<std::thread> tailers_;
};

} // namespace delorean::service

#endif // DELOREAN_SERVICE_STREAM_HH
