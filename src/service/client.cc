#include "service/client.hh"

#include <unistd.h>

#include <chrono>
#include <csignal>
#include <iomanip>
#include <sstream>
#include <thread>

#include "batch/error.hh"
#include "batch/plan.hh"
#include "batch/result_io.hh"
#include "service/server.hh"
#include "workload/endian.hh"

namespace delorean::service
{

namespace
{

/** Comma-separated values split out of one "k=v,v,v" token value. */
std::vector<std::string>
splitCommas(const std::string &text)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= text.size()) {
        const std::size_t comma = text.find(',', start);
        if (comma == std::string::npos) {
            out.push_back(text.substr(start));
            break;
        }
        out.push_back(text.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

/** Shared STREAM-HANDOFF ack parse ("committed= stored= discarded="). */
ServiceClient::StreamHandoffInfo
parseHandoffReply(const std::string &reply)
{
    ServiceClient::StreamHandoffInfo info;
    std::istringstream is(reply);
    std::string token;
    try {
        while (is >> token) {
            if (token.rfind("committed=", 0) == 0)
                info.committed = batch::parseU32(token.substr(10));
            else if (token.rfind("stored=", 0) == 0)
                info.stored = batch::parseCount(token.substr(7));
            else if (token.rfind("discarded=", 0) == 0)
                info.discarded = batch::parseCount(token.substr(10));
        }
    } catch (const batch::BatchError &e) {
        throw ServiceError("STREAM-HANDOFF: malformed reply '" + reply +
                           "': " + e.what());
    }
    return info;
}

} // namespace

unsigned
pollBackoffMs(unsigned attempt, unsigned base_ms, unsigned cap_ms,
              std::uint64_t seed)
{
    if (base_ms == 0)
        base_ms = 1;
    if (cap_ms < base_ms)
        cap_ms = base_ms;
    std::uint64_t delay = base_ms;
    for (unsigned i = 0; i < attempt && delay < cap_ms; ++i)
        delay *= 2;
    if (delay > cap_ms)
        delay = cap_ms;
    // splitmix64 of (seed, attempt): deterministic, no global state.
    std::uint64_t z =
        seed + 0x9e3779b97f4a7c15ull * (std::uint64_t(attempt) + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    // Jitter subtracts only (up to delay/4), so the cap stays a cap.
    return unsigned(delay - (z % (delay / 4 + 1)));
}

ServiceClient::ServiceClient(const std::string &socket_path)
{
    // A server that dies mid-exchange must surface as a ServiceError
    // on this thread, not kill the client process.
    std::signal(SIGPIPE, SIG_IGN);
    fd_ = connectToServer(socket_path);
}

ServiceClient::~ServiceClient()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
ServiceClient::ping(const std::string &socket_path)
{
    try {
        ::close(connectToServer(socket_path));
        return true;
    } catch (const ServiceError &) {
        return false;
    }
}

std::string
ServiceClient::call(protocol::Opcode op, std::string body)
{
    protocol::Request request;
    request.op = op;
    request.body = std::move(body);
    protocol::writeRequest(fd_, request);
    auto reply = protocol::readReply(fd_);
    if (!reply.ok)
        throw ServiceError(std::string(protocol::opcodeName(op)) +
                           ": " + reply.body);
    return std::move(reply.body);
}

ServiceClient::SubmitInfo
ServiceClient::submit(const std::string &manifest_text,
                      std::uint32_t priority)
{
    std::string body(4, '\0');
    workload::le::putU32(reinterpret_cast<std::uint8_t *>(body.data()),
                         priority);
    body += manifest_text;
    const std::string reply = call(protocol::Opcode::Submit,
                                   std::move(body));

    // "job=<id> cells=<n>\n". The values cross a process boundary, so
    // parse strictly (batch::parseCount: digits only, no sign, no
    // trailing junk, range-checked) — a raw std::stoull would accept
    // "-1" by wraparound, stop silently at "12x"'s junk, and escape as
    // a bare std::invalid_argument on "abc" instead of a ServiceError.
    SubmitInfo info;
    std::istringstream is(reply);
    std::string token;
    try {
        while (is >> token) {
            if (token.rfind("job=", 0) == 0)
                info.job = batch::parseCount(token.substr(4));
            else if (token.rfind("cells=", 0) == 0)
                info.cells = batch::parseCount(token.substr(6));
        }
    } catch (const batch::BatchError &e) {
        throw ServiceError("SUBMIT: malformed reply '" + reply +
                           "': " + e.what());
    }
    if (info.job == 0)
        throw ServiceError("SUBMIT: malformed reply '" + reply + "'");
    return info;
}

std::string
ServiceClient::statusText()
{
    return call(protocol::Opcode::Status, "");
}

ServiceStatus
ServiceClient::status()
{
    const std::string reply = statusText();
    ServiceStatus info;

    // Line 1 is the counter header; every line after it belongs to a
    // job record. The header must be parsed on its own because job
    // records end in a client-controlled name that can embed key=value
    // lookalikes.
    const std::size_t eol = reply.find('\n');
    const std::string header =
        eol == std::string::npos ? reply : reply.substr(0, eol);
    std::istringstream is(header);
    std::string token;
    try {
        while (is >> token) {
            if (token.rfind("jobs=", 0) == 0)
                info.jobs_submitted =
                    batch::parseCount(token.substr(5));
            else if (token.rfind("completed=", 0) == 0)
                info.jobs_completed =
                    batch::parseCount(token.substr(10));
            else if (token.rfind("job_failures=", 0) == 0)
                info.job_failures = batch::parseCount(token.substr(13));
            else if (token.rfind("queue_depth=", 0) == 0)
                info.queue_depth = batch::parseCount(token.substr(12));
            else if (token.rfind("running=", 0) == 0)
                info.running = batch::parseCount(token.substr(8));
            else if (token.rfind("cells_enqueued=", 0) == 0)
                info.cells_enqueued =
                    batch::parseCount(token.substr(15));
            else if (token.rfind("cells_deduped=", 0) == 0)
                info.cells_deduped =
                    batch::parseCount(token.substr(14));
            else if (token.rfind("cells_executed=", 0) == 0)
                info.cells_executed =
                    batch::parseCount(token.substr(15));
            else if (token.rfind("cells_cached=", 0) == 0)
                info.cells_cached = batch::parseCount(token.substr(13));
            else if (token.rfind("cells_total=", 0) == 0)
                info.fleet_stats.cells_total =
                    batch::parseCount(token.substr(12));
            else if (token.rfind("units_ready=", 0) == 0) {
                info.fleet = true;
                info.fleet_stats.units_ready =
                    batch::parseCount(token.substr(12));
            } else if (token.rfind("units_leased=", 0) == 0)
                info.fleet_stats.units_leased =
                    batch::parseCount(token.substr(13));
            else if (token.rfind("leases_granted=", 0) == 0)
                info.fleet_stats.leases_granted =
                    batch::parseCount(token.substr(15));
            else if (token.rfind("leases_expired=", 0) == 0)
                info.fleet_stats.leases_expired =
                    batch::parseCount(token.substr(15));
            else if (token.rfind("streams=", 0) == 0)
                info.fleet_stats.streams =
                    batch::parseCount(token.substr(8));
            else if (token.rfind("stream_leases=", 0) == 0)
                info.fleet_stats.stream_leases =
                    batch::parseCount(token.substr(14));
            else if (token.rfind("stream_windows=", 0) == 0)
                info.fleet_stats.stream_windows =
                    batch::parseCount(token.substr(15));
            else if (token.rfind("streams_finished=", 0) == 0)
                info.fleet_stats.streams_finished =
                    batch::parseCount(token.substr(17));
            else if (token.rfind("streams_failed=", 0) == 0)
                info.fleet_stats.streams_failed =
                    batch::parseCount(token.substr(15));
        }
    } catch (const batch::BatchError &e) {
        throw ServiceError("STATUS: malformed reply header '" + header +
                           "': " + e.what());
    }

    // Job records: a "job=" line opens one, indented lines (the
    // "  error:" diagnostic) attach to the open record.
    std::vector<std::string> records;
    std::size_t pos = eol == std::string::npos ? reply.size() : eol + 1;
    while (pos < reply.size()) {
        const std::size_t next = reply.find('\n', pos);
        const std::string line =
            next == std::string::npos ? reply.substr(pos)
                                      : reply.substr(pos, next - pos);
        pos = next == std::string::npos ? reply.size() : next + 1;
        if (line.empty())
            continue;
        if (line.rfind("job=", 0) == 0)
            records.push_back(line + "\n");
        else if (!records.empty())
            records.back() += line + "\n";
        else
            throw ServiceError("STATUS: unexpected line '" + line +
                               "'");
    }
    info.jobs.reserve(records.size());
    for (const auto &record : records)
        info.jobs.push_back(parseJobStatusLine(record));
    return info;
}

JobStatus
ServiceClient::jobStatus(std::uint64_t job)
{
    return parseJobStatusLine(
        call(protocol::Opcode::Status, std::to_string(job)));
}

bool
ServiceClient::jobDone(std::uint64_t job)
{
    // The typed parse is what makes this robust: jobs are named by a
    // client-controlled string, so any substring search over the raw
    // line would let a manifest called "state=done.plan" make every
    // poll of its still-running job report finished.
    return jobStatus(job).complete();
}

bool
ServiceClient::waitForJob(std::uint64_t job, double timeout_s)
{
    using Clock = std::chrono::steady_clock;
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(timeout_s));
    unsigned attempt = 0;
    for (;;) {
        if (jobDone(job))
            return true;
        if (Clock::now() >= deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(
            pollBackoffMs(attempt++, poll_base_ms, poll_cap_ms, job)));
    }
}

ServiceClient::LeaseInfo
ServiceClient::lease(const std::string &worker_name)
{
    const std::string body =
        worker_name.empty() ? "" : "worker=" + worker_name + "\n";
    const std::string reply = call(protocol::Opcode::Lease, body);

    LeaseInfo info;
    if (reply == "none\n" || reply == "none")
        return info;

    const std::size_t eol = reply.find('\n');
    const std::string header =
        eol == std::string::npos ? reply : reply.substr(0, eol);
    info.manifest =
        eol == std::string::npos ? "" : reply.substr(eol + 1);
    std::istringstream is(header);
    std::string token;
    try {
        while (is >> token) {
            if (token.rfind("lease=", 0) == 0) {
                info.lease = batch::parseCount(token.substr(6));
            } else if (token.rfind("deadline-ms=", 0) == 0) {
                info.deadline_ms = batch::parseU32(token.substr(12));
            } else if (token.rfind("job=", 0) == 0) {
                info.job = batch::parseCount(token.substr(4));
            } else if (token.rfind("cells=", 0) == 0) {
                for (const auto &v : splitCommas(token.substr(6)))
                    info.cells.push_back(
                        std::size_t(batch::parseCount(v)));
            } else if (token.rfind("keys=", 0) == 0) {
                for (const auto &v : splitCommas(token.substr(5)))
                    info.keys.push_back(batch::CacheKey::fromHex(v));
            }
        }
    } catch (const batch::BatchError &e) {
        throw ServiceError("LEASE: malformed reply header '" + header +
                           "': " + e.what());
    }
    if (info.lease == 0 || info.job == 0 || info.cells.empty() ||
        info.keys.size() != info.cells.size())
        throw ServiceError("LEASE: malformed reply header '" + header +
                           "'");
    info.idle = false;
    return info;
}

unsigned
ServiceClient::renew(std::uint64_t lease)
{
    const std::string reply =
        call(protocol::Opcode::Renew, "lease=" + std::to_string(lease));
    std::istringstream is(reply);
    std::string token;
    try {
        while (is >> token)
            if (token.rfind("deadline-ms=", 0) == 0)
                return batch::parseU32(token.substr(12));
    } catch (const batch::BatchError &) {
    }
    throw ServiceError("RENEW: malformed reply '" + reply + "'");
}

ServiceClient::CompleteInfo
ServiceClient::complete(std::uint64_t lease, const std::string &payload)
{
    return completeCall(lease, true, payload);
}

ServiceClient::CompleteInfo
ServiceClient::completeError(std::uint64_t lease,
                             const std::string &message)
{
    return completeCall(lease, false, message);
}

ServiceClient::CompleteInfo
ServiceClient::completeCall(std::uint64_t lease, bool ok,
                            const std::string &payload)
{
    protocol::writeCompleteRequest(fd_, lease, ok, payload);
    auto reply = protocol::readReply(fd_);
    if (!reply.ok)
        throw ServiceError("COMPLETE: " + reply.body);

    CompleteInfo info;
    std::istringstream is(reply.body);
    std::string token;
    try {
        while (is >> token) {
            if (token.rfind("stored=", 0) == 0)
                info.stored = batch::parseCount(token.substr(7));
            else if (token.rfind("discarded=", 0) == 0)
                info.discarded = batch::parseCount(token.substr(10));
        }
    } catch (const batch::BatchError &e) {
        throw ServiceError("COMPLETE: malformed reply '" + reply.body +
                           "': " + e.what());
    }
    return info;
}

std::uint64_t
ServiceClient::streamOpen(const std::string &directives)
{
    const std::string reply =
        call(protocol::Opcode::StreamOpen, directives);
    std::istringstream is(reply);
    std::string token;
    try {
        while (is >> token)
            if (token.rfind("stream=", 0) == 0)
                return batch::parseCount(token.substr(7));
    } catch (const batch::BatchError &) {
    }
    throw ServiceError("STREAM-OPEN: malformed reply '" + reply + "'");
}

ServiceClient::StreamAppendInfo
ServiceClient::streamAppend(std::uint64_t stream,
                            const std::string &bytes)
{
    std::string body = "stream=" + std::to_string(stream) + "\n";
    body += bytes;
    const std::string reply =
        call(protocol::Opcode::StreamAppend, std::move(body));

    StreamAppendInfo info;
    std::istringstream is(reply);
    std::string token;
    try {
        while (is >> token) {
            if (token.rfind("received=", 0) == 0)
                info.received = batch::parseCount(token.substr(9));
            else if (token.rfind("records=", 0) == 0)
                info.records = batch::parseCount(token.substr(8));
            else if (token.rfind("windows_fed=", 0) == 0)
                info.windows_fed = batch::parseU32(token.substr(12));
        }
    } catch (const batch::BatchError &e) {
        throw ServiceError("STREAM-APPEND: malformed reply '" + reply +
                           "': " + e.what());
    }
    return info;
}

ServiceClient::StreamCloseInfo
ServiceClient::streamClose(std::uint64_t stream)
{
    const std::string reply = call(protocol::Opcode::StreamClose,
                                   "stream=" + std::to_string(stream));

    StreamCloseInfo info;
    bool have_key = false;
    std::istringstream is(reply);
    std::string token;
    try {
        while (is >> token) {
            if (token.rfind("key=", 0) == 0) {
                info.key = batch::CacheKey::fromHex(token.substr(4));
                have_key = true;
            } else if (token.rfind("windows=", 0) == 0) {
                info.windows = batch::parseU32(token.substr(8));
            }
        }
    } catch (const batch::BatchError &e) {
        throw ServiceError("STREAM-CLOSE: malformed reply '" + reply +
                           "': " + e.what());
    }
    if (!have_key)
        throw ServiceError("STREAM-CLOSE: malformed reply '" + reply +
                           "'");
    return info;
}

ServiceClient::StreamStatus
ServiceClient::streamStatus(std::uint64_t stream)
{
    const std::string reply = call(protocol::Opcode::Status,
                                   "stream=" + std::to_string(stream));

    StreamStatus info;
    std::istringstream is(reply);
    std::string token;
    try {
        while (is >> token) {
            if (token.rfind("records=", 0) == 0)
                info.records = batch::parseCount(token.substr(8));
            else if (token.rfind("windows_fed=", 0) == 0)
                info.windows_fed = batch::parseU32(token.substr(12));
            else if (token.rfind("windows_total=", 0) == 0)
                info.windows_total = batch::parseU32(token.substr(14));
            else if (token.rfind("est_cpi=", 0) == 0)
                info.est_cpi = batch::parseReal(token.substr(8));
            else if (token.rfind("ci_error=", 0) == 0)
                info.ci_error = batch::parseReal(token.substr(9));
            else if (token.rfind("mpki=", 0) == 0)
                info.mpki = batch::parseReal(token.substr(5));
            else if (token.rfind("complete=", 0) == 0)
                info.complete =
                    batch::parseCount(token.substr(9)) != 0;
            else if (token.rfind("mrc=", 0) == 0) {
                for (const auto &point : splitCommas(token.substr(4))) {
                    const std::size_t colon = point.find(':');
                    if (colon == std::string::npos)
                        throw batch::BatchError("mrc point '" + point +
                                                "' has no ':'");
                    info.mrc.emplace_back(
                        batch::parseCount(point.substr(0, colon)),
                        batch::parseReal(point.substr(colon + 1)));
                }
            }
        }
    } catch (const batch::BatchError &e) {
        throw ServiceError("STATUS: malformed stream reply '" + reply +
                           "': " + e.what());
    }
    if (info.windows_total == 0)
        throw ServiceError("STATUS: malformed stream reply '" + reply +
                           "'");
    return info;
}

ServiceClient::StreamLeaseInfo
ServiceClient::streamLease(const std::string &worker_name)
{
    const std::string body =
        worker_name.empty() ? "" : "worker=" + worker_name + "\n";
    const std::string reply =
        call(protocol::Opcode::StreamLease, body);

    StreamLeaseInfo info;
    if (reply == "none\n" || reply == "none")
        return info;

    const std::size_t eol = reply.find('\n');
    const std::string header =
        eol == std::string::npos ? reply : reply.substr(0, eol);
    info.directives =
        eol == std::string::npos ? "" : reply.substr(eol + 1);
    bool have_lease = false, have_stream = false, have_to = false;
    std::istringstream is(header);
    std::string token;
    try {
        while (is >> token) {
            if (token.rfind("lease=", 0) == 0) {
                info.lease = batch::parseCount(token.substr(6));
                have_lease = true;
            } else if (token.rfind("deadline-ms=", 0) == 0) {
                info.deadline_ms = batch::parseU32(token.substr(12));
            } else if (token.rfind("stream=", 0) == 0) {
                info.stream = batch::parseCount(token.substr(7));
                have_stream = true;
            } else if (token.rfind("from=", 0) == 0) {
                info.from = batch::parseU32(token.substr(5));
            } else if (token.rfind("to=", 0) == 0) {
                info.to = batch::parseU32(token.substr(3));
                have_to = true;
            } else if (token.rfind("finish=", 0) == 0) {
                info.finish =
                    batch::parseCount(token.substr(7)) != 0;
            } else if (token.rfind("records=", 0) == 0) {
                info.records = batch::parseCount(token.substr(8));
            } else if (token.rfind("trace=", 0) == 0) {
                info.trace = token.substr(6);
            } else if (token.rfind("prefix=", 0) == 0) {
                info.prefix = token.substr(7);
            }
        }
    } catch (const batch::BatchError &e) {
        throw ServiceError("STREAM-LEASE: malformed reply header '" +
                           header + "': " + e.what());
    }
    if (!have_lease || !have_stream || !have_to ||
        info.trace.empty() || info.prefix.empty() ||
        info.to < info.from)
        throw ServiceError("STREAM-LEASE: malformed reply header '" +
                           header + "'");
    info.idle = false;
    return info;
}

ServiceClient::StreamHandoffInfo
ServiceClient::streamHandoff(std::uint64_t lease, unsigned windows,
                             const std::string &prefix, double est_cpi,
                             double ci_error, double mpki,
                             const std::string &mrc,
                             const std::string &payload)
{
    // %.17g-equivalent precision: the estimates round-trip exactly, so
    // a migrated stream's STATUS shows the same digits an unmigrated
    // one would.
    std::ostringstream os;
    os << "lease=" << lease << " status=ok windows=" << windows
       << " prefix=" << (prefix.empty() ? "-" : prefix)
       << std::setprecision(17) << " est_cpi=" << est_cpi
       << " ci_error=" << ci_error << " mpki=" << mpki;
    if (!mrc.empty())
        os << " mrc=" << mrc;
    os << "\n" << payload;
    return parseHandoffReply(
        call(protocol::Opcode::StreamHandoff, os.str()));
}

ServiceClient::StreamHandoffInfo
ServiceClient::streamHandoffError(std::uint64_t lease,
                                  const std::string &message)
{
    const std::string body = "lease=" + std::to_string(lease) +
                             " status=error\n" + message;
    return parseHandoffReply(
        call(protocol::Opcode::StreamHandoff, body));
}

std::string
ServiceClient::resultBytes(const batch::CacheKey &key)
{
    return call(protocol::Opcode::Result, key.hex());
}

sampling::MethodResult
ServiceClient::result(const batch::CacheKey &key)
{
    std::istringstream is(resultBytes(key), std::ios::binary);
    return batch::readMethodResult(is);
}

std::string
ServiceClient::statsText()
{
    return call(protocol::Opcode::Stats, "");
}

ServiceStats
ServiceClient::stats()
{
    const std::string reply = statsText();
    ServiceStats info;
    // Unlike STATUS, a STATS reply carries no client-controlled text,
    // and its key names are unique across both lines — one token scan
    // over the whole reply covers daemon and coordinator variants.
    std::istringstream is(reply);
    std::string token;
    try {
        while (is >> token) {
            if (token.rfind("last_run_executed=", 0) == 0)
                info.last_run_executed =
                    batch::parseCount(token.substr(18));
            else if (token.rfind("last_run_cached=", 0) == 0)
                info.last_run_cached =
                    batch::parseCount(token.substr(16));
            else if (token.rfind("total_executed=", 0) == 0)
                info.total_executed =
                    batch::parseCount(token.substr(15));
            else if (token.rfind("total_cached=", 0) == 0)
                info.total_cached = batch::parseCount(token.substr(13));
            else if (token.rfind("jobs=", 0) == 0)
                info.jobs_submitted =
                    batch::parseCount(token.substr(5));
            else if (token.rfind("completed=", 0) == 0)
                info.jobs_completed =
                    batch::parseCount(token.substr(10));
            else if (token.rfind("job_failures=", 0) == 0)
                info.job_failures = batch::parseCount(token.substr(13));
            else if (token.rfind("cells_executed=", 0) == 0)
                info.cells_executed =
                    batch::parseCount(token.substr(15));
            else if (token.rfind("cells_cached=", 0) == 0)
                info.cells_cached = batch::parseCount(token.substr(13));
            else if (token.rfind("cells_enqueued=", 0) == 0)
                info.cells_enqueued =
                    batch::parseCount(token.substr(15));
            else if (token.rfind("cells_deduped=", 0) == 0)
                info.cells_deduped =
                    batch::parseCount(token.substr(14));
            else if (token.rfind("queue_depth=", 0) == 0)
                info.queue_depth = batch::parseCount(token.substr(12));
            else if (token.rfind("running=", 0) == 0)
                info.running = batch::parseCount(token.substr(8));
            else if (token.rfind("spool_processed=", 0) == 0)
                info.spool_processed =
                    batch::parseCount(token.substr(16));
            else if (token.rfind("cells_total=", 0) == 0)
                info.fleet_stats.cells_total =
                    batch::parseCount(token.substr(12));
            else if (token.rfind("units_ready=", 0) == 0) {
                info.fleet = true;
                info.fleet_stats.units_ready =
                    batch::parseCount(token.substr(12));
            } else if (token.rfind("units_leased=", 0) == 0)
                info.fleet_stats.units_leased =
                    batch::parseCount(token.substr(13));
            else if (token.rfind("leases_granted=", 0) == 0)
                info.fleet_stats.leases_granted =
                    batch::parseCount(token.substr(15));
            else if (token.rfind("leases_renewed=", 0) == 0)
                info.fleet_stats.leases_renewed =
                    batch::parseCount(token.substr(15));
            else if (token.rfind("leases_expired=", 0) == 0)
                info.fleet_stats.leases_expired =
                    batch::parseCount(token.substr(15));
            else if (token.rfind("results_stored=", 0) == 0)
                info.fleet_stats.results_stored =
                    batch::parseCount(token.substr(15));
            else if (token.rfind("results_discarded=", 0) == 0)
                info.fleet_stats.results_discarded =
                    batch::parseCount(token.substr(18));
            else if (token.rfind("quota_rejections=", 0) == 0)
                info.fleet_stats.quota_rejections =
                    batch::parseCount(token.substr(17));
            else if (token.rfind("streams=", 0) == 0)
                info.fleet_stats.streams =
                    batch::parseCount(token.substr(8));
            else if (token.rfind("stream_leases=", 0) == 0)
                info.fleet_stats.stream_leases =
                    batch::parseCount(token.substr(14));
            else if (token.rfind("stream_handoffs=", 0) == 0)
                info.fleet_stats.stream_handoffs =
                    batch::parseCount(token.substr(16));
            else if (token.rfind("stream_windows=", 0) == 0)
                info.fleet_stats.stream_windows =
                    batch::parseCount(token.substr(15));
            else if (token.rfind("streams_finished=", 0) == 0)
                info.fleet_stats.streams_finished =
                    batch::parseCount(token.substr(17));
            else if (token.rfind("streams_failed=", 0) == 0)
                info.fleet_stats.streams_failed =
                    batch::parseCount(token.substr(15));
        }
    } catch (const batch::BatchError &e) {
        throw ServiceError("STATS: malformed reply '" + reply + "': " +
                           e.what());
    }
    return info;
}

void
ServiceClient::shutdown()
{
    (void)call(protocol::Opcode::Shutdown, "");
}

} // namespace delorean::service
