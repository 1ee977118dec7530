/**
 * @file
 * DLRNSRV1: the batch service wire protocol.
 *
 * A connection carries a sequence of request/reply frames over a
 * Unix-domain stream socket. Every frame is length-prefixed and fully
 * little-endian (workload/endian.hh helpers), mirroring the trace and
 * result file formats:
 *
 *   Request frame:
 *     char[8]  magic     "DLRNSRV1"
 *     u32      opcode    (Opcode below)
 *     u32      length    body byte count, <= max_body
 *     bytes    body
 *
 *   Reply frame:
 *     char[8]  magic     "DLRNSRV1"
 *     u32      status    0 = ok, 1 = error (body = message text)
 *     u32      length    body byte count, <= max_body
 *     bytes    body
 *
 * Request bodies:
 *
 *   SUBMIT    u32 priority + manifest text (batch/plan.hh format).
 *             Ok body: "job=<id> cells=<n>\n".
 *   STATUS    empty (global) or the decimal id of one job.
 *             Ok body: counter/job lines (docs/service.md).
 *   RESULT    32 lowercase hex digits: a cell's content cache key.
 *             Ok body: the *raw serialized record* (batch/result_io.hh,
 *             magic DLRNRES1) exactly as stored by the result cache —
 *             a client-side readMethodResult() yields a MethodResult
 *             that compares equal (operator==, doubles bitwise) to a
 *             local BatchRunner run of the same cell.
 *   STATS     empty. Ok body: cache stats.tsv counters + service
 *             counters, one k=v per token.
 *   SHUTDOWN  empty. Ok body: "ok\n"; the server stops accepting,
 *             drains in-flight cells and exits.
 *
 * Fleet opcodes (coordinator/worker; docs/service.md):
 *
 *   LEASE     optional "worker=<name>". Ok body: "none\n" when idle,
 *             else a header line "lease=<id> deadline-ms=<ms>
 *             job=<job> cells=<i,j,...>\n" followed by the owning
 *             job's manifest text; the worker re-expands the plan
 *             (expansion order is part of the BatchPlan API) and
 *             executes the named cells.
 *   RENEW     "lease=<id>". Ok body: "deadline-ms=<ms>\n"; error once
 *             the lease expired or was never granted.
 *   COMPLETE  header line "lease=<id> status=ok|error more=0|1\n",
 *             then the payload: concatenated serialized MethodResult
 *             records (batch/result_io.hh) in unit order for ok, the
 *             diagnostic text for error. more=1 moves the payload out
 *             of this frame into a RESULT-PART/RESULT-END stream.
 *             Ok body: "stored=<n> discarded=<m>\n" — a zombie
 *             worker's duplicate COMPLETE is acked and discarded,
 *             never an error.
 *   RESULT-PART / RESULT-END
 *             payload chunks of a COMPLETE with more=1 (RESULT-END
 *             carries the final, possibly empty, chunk). Only valid
 *             inside such a stream; standalone frames are protocol
 *             violations. readRequest() reassembles the stream into
 *             one Request transparently, bounded by max_stream.
 *
 * TRACE-STREAM opcodes (streaming warming; docs/service.md):
 *
 *   STREAM-OPEN
 *             batch-manifest directives (config/schedule/methods only
 *             — the workload is the streamed trace itself). Ok body:
 *             "stream=<id>\n". The service starts a spooled trace and
 *             a resumable warming session for the stream.
 *   STREAM-APPEND
 *             "stream=<id>\n" + raw DLRNTRC1 bytes — any chunking,
 *             including mid-record and mid-header splits. Complete
 *             windows are analyzed as their bytes arrive. Ok body:
 *             "received=<bytes> records=<n> windows_fed=<k>\n".
 *   STREAM-CLOSE
 *             "stream=<id>". Requires exactly the byte count the
 *             stream's DLRNTRC1 header declared. Ok body:
 *             "key=<32 hex> windows=<n>\n" — the final MethodResult
 *             is in the result cache under that content key (RESULT
 *             fetches it), bit-identical to an offline run over the
 *             same bytes. STATUS with body "stream=<id>" polls the
 *             running estimate of an open stream.
 *
 * Stream-migration opcodes (fleet-hosted streams; docs/service.md):
 *
 *   STREAM-LEASE
 *             optional "worker=<name>". Ok body: "none\n" when no
 *             stream has leasable windows, else a header line
 *             "lease=<id> deadline-ms=<ms> stream=<sid>
 *             from=<window> to=<window> finish=0|1 records=<n>
 *             trace=<spool path> prefix=<lvp path or ->\n" followed by
 *             the stream's directives text. The worker resumes the
 *             session from the DLRNLVP1 prefix (loadPrefixForRun +
 *             feedWarmWindows), feeds windows [from, to), and reports
 *             back via STREAM-HANDOFF.
 *   STREAM-HANDOFF
 *             header line "lease=<id> status=ok|error windows=<n>
 *             prefix=<lvp path or -> est_cpi=<f> ci_error=<f>
 *             mpki=<f> mrc=<bytes>:<ratio>,...\n" followed by the
 *             payload: a serialized MethodResult record when the lease
 *             was a finish lease, the diagnostic text on error, empty
 *             otherwise. Ok body: "committed=<windows> stored=<0|1>
 *             discarded=<0|1>\n" — like COMPLETE, a zombie worker's
 *             duplicate handoff is acked and discarded, never an
 *             error.
 *
 * Replies larger than one frame stream the same way in the other
 * direction: writeReply() splits an oversized body into partial
 * frames (status 2, the reply-side RESULT-PART) closed by a final
 * status-0 frame, and readReply() reassembles them — a RESULT fetch
 * bigger than the 64 MiB frame cap round-trips without either side
 * ever allocating from an unvalidated length prefix.
 *
 * Readers validate everything (magic, opcode, length bound) and throw
 * ServiceError on any violation; a malformed or oversized frame must
 * drop the connection, never crash the daemon or allocate unbounded
 * memory. A clean EOF *between* request frames is the normal way a
 * client hangs up and is not an error.
 */

#ifndef DELOREAN_SERVICE_PROTOCOL_HH
#define DELOREAN_SERVICE_PROTOCOL_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>

namespace delorean::batch
{
class ResultCache;
} // namespace delorean::batch

namespace delorean::service
{

/**
 * Any user-facing failure in the service layer: malformed frames,
 * unreachable or dead sockets, server-reported request errors. CLIs
 * catch this and report via fatal(); the daemon catches it per
 * connection and drops the offender.
 */
class ServiceError : public std::runtime_error
{
  public:
    explicit ServiceError(const std::string &what)
        : std::runtime_error(what)
    {}
};

namespace protocol
{

constexpr char magic[8] = {'D', 'L', 'R', 'N', 'S', 'R', 'V', '1'};

/**
 * Frame body ceiling. Result records are a few KiB and manifests are
 * text; anything near this bound is a confused or hostile peer, and
 * the bound is what keeps a garbage length prefix from turning into a
 * multi-gigabyte allocation inside the daemon.
 */
constexpr std::uint32_t max_body = 64u << 20;

/**
 * Ceiling on a *reassembled* chunked payload (COMPLETE streams and
 * partial replies). Each chunk still obeys max_body; this bounds how
 * many of them one logical payload may carry, so a hostile peer
 * cannot stream unbounded memory either.
 */
constexpr std::uint64_t max_stream = 1ull << 30;

/** Reply status codes (the u32 where requests carry an opcode). */
constexpr std::uint32_t status_ok = 0;
constexpr std::uint32_t status_error = 1;
/** A partial body chunk; more frames follow, a status_ok frame ends. */
constexpr std::uint32_t status_part = 2;

enum class Opcode : std::uint32_t
{
    Submit = 1,
    Status = 2,
    Result = 3,
    Stats = 4,
    Shutdown = 5,
    Lease = 6,
    Renew = 7,
    Complete = 8,
    ResultPart = 9,
    ResultEnd = 10,
    StreamOpen = 11,
    StreamAppend = 12,
    StreamClose = 13,
    StreamLease = 14,
    StreamHandoff = 15,
};

/**
 * The SUBMIT priority clients send when they don't care: above the
 * spool's bulk priority (service.hh), so interactive work overtakes
 * dropped manifests. The one definition both ServiceClient's default
 * argument and documentation refer to.
 */
constexpr std::uint32_t default_submit_priority = 10;

/** @return a human-readable opcode name for diagnostics. */
const char *opcodeName(Opcode op);

struct Request
{
    Opcode op = Opcode::Status;
    std::string body;
};

struct Reply
{
    bool ok = true;
    std::string body; //!< payload, or the error message when !ok

    /**
     * Run by the server *after* the reply frame is on the wire; never
     * serialized. SHUTDOWN uses this to start the drain only once its
     * "ok" has been sent — triggering it from the handler would race
     * the server teardown against the reply write, and the shutdown
     * client would intermittently see a dropped connection instead.
     */
    std::function<void()> after_send;

    static Reply success(std::string payload)
    {
        return Reply{true, std::move(payload), nullptr};
    }

    static Reply error(const std::string &message)
    {
        return Reply{false, message, nullptr};
    }
};

/**
 * Write @p count bytes to @p fd, retrying on EINTR and short writes.
 * Throws ServiceError if the peer is gone. (SIGPIPE must be disabled
 * process-wide; the daemon and the CLI both ignore it at startup.)
 */
void writeAll(int fd, const void *data, std::size_t count);

/**
 * Read exactly @p count bytes. @return false on clean EOF *before the
 * first byte*; throws ServiceError on EOF mid-buffer or read errors.
 */
bool readExact(int fd, void *data, std::size_t count);

void writeRequest(int fd, const Request &request);

/**
 * Read one request. @return nullopt on clean EOF (client hung up);
 * throws ServiceError on malformed input or truncation. A COMPLETE
 * whose header says more=1 is reassembled from its RESULT-PART/
 * RESULT-END continuation frames into one Request (body bounded by
 * max_stream); a standalone RESULT-PART/RESULT-END is rejected.
 */
std::optional<Request> readRequest(int fd);

/**
 * Write one reply. Bodies above max_body are split into status_part
 * frames closed by a final status_ok frame; error bodies must fit one
 * frame (they are short diagnostics by construction).
 */
void writeReply(int fd, const Reply &reply);

/**
 * Read one reply, reassembling status_part chunks (total bounded by
 * max_stream). EOF is always an error here: a client that sent a
 * request is owed a reply.
 */
Reply readReply(int fd);

/**
 * Send a COMPLETE for @p lease. When header + payload fit one frame
 * the payload rides inline (more=0); otherwise the header frame says
 * more=1 and the payload follows as RESULT-PART frames closed by a
 * RESULT-END — the request-side mirror of the chunked reply path.
 * @p ok selects status=ok (payload = serialized records) versus
 * status=error (payload = diagnostic text).
 */
void writeCompleteRequest(int fd, std::uint64_t lease, bool ok,
                          const std::string &payload);

// Request-body helpers shared by both DLRNSRV1 front ends (the batch
// daemon and the fleet coordinator), so the two cannot drift apart.

/** A decoded SUBMIT body. */
struct Submission
{
    int priority = 0;     //!< clamped to [0, max_submit_priority]
    std::string manifest; //!< the manifest text after the prefix
};

/** Highest priority a SUBMIT may claim; larger values clamp to it. */
constexpr std::uint32_t max_submit_priority = 1000;

/** Split a SUBMIT body into its u32 LE priority prefix and manifest.
 *  Throws ServiceError when the prefix is missing. */
Submission parseSubmit(const std::string &body);

/** Parse a "stream=<id>" body or header line (optional trailing
 *  newline); @p what labels the diagnostic. Throws ServiceError. */
std::uint64_t parseStreamId(std::string text, const char *what);

/** Answer a RESULT request (body = key hex) from @p cache. */
Reply resultReply(const batch::ResultCache &cache,
                  const std::string &body);

} // namespace protocol

} // namespace delorean::service

#endif // DELOREAN_SERVICE_PROTOCOL_HH
