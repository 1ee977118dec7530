#include "service/client.hh"

#include <unistd.h>

#include <chrono>
#include <csignal>
#include <iomanip>
#include <sstream>
#include <thread>
#include <variant>

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

/** Where one reply token's value goes: a strict count, u32 or real. */
using Field = std::variant<std::uint64_t *, unsigned *, double *>;

/**
 * Parse the "key=value" tokens of @p text named in @p fields, strictly
 * (batch::parseCount / parseU32 / parseReal); other tokens are
 * ignored. @return whether @p text came from a fleet coordinator (it
 * carries units_ready=). Throws BatchError.
 */
bool
parseFields(const std::string &text,
            std::initializer_list<std::pair<const char *, Field>> fields)
{
    std::istringstream is(text);
    std::string token;
    bool fleet = false;
    while (is >> token) {
        const std::size_t eq = token.find('=');
        if (eq == std::string::npos)
            continue;
        fleet = fleet || token.compare(0, eq, "units_ready") == 0;
        const std::string value = token.substr(eq + 1);
        for (const auto &[key, field] : fields) {
            if (token.compare(0, eq, key) != 0)
                continue;
            if (auto *const *count = std::get_if<std::uint64_t *>(&field))
                **count = batch::parseCount(value);
            else if (auto *const *u32 = std::get_if<unsigned *>(&field))
                **u32 = batch::parseU32(value);
            else
                *std::get<double *>(field) = batch::parseReal(value);
        }
    }
    return fleet;
}

/** Shared STREAM-HANDOFF ack parse ("committed= stored= discarded="). */
ServiceClient::StreamHandoffInfo
parseHandoffReply(const std::string &reply)
{
    ServiceClient::StreamHandoffInfo info;
    try {
        parseFields(reply, {{"committed", &info.committed},
                            {"stored", &info.stored},
                            {"discarded", &info.discarded}});
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
    try {
        parseFields(reply, {{"job", &info.job}, {"cells", &info.cells}});
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
    FleetStats &f = info.fleet_stats;
    try {
        info.fleet = parseFields(
            header, {{"jobs", &info.jobs_submitted},
                     {"completed", &info.jobs_completed},
                     {"job_failures", &info.job_failures},
                     {"queue_depth", &info.queue_depth},
                     {"running", &info.running},
                     {"cells_enqueued", &info.cells_enqueued},
                     {"cells_deduped", &info.cells_deduped},
                     {"cells_executed", &info.cells_executed},
                     {"cells_cached", &info.cells_cached},
                     {"cells_total", &f.cells_total},
                     {"units_ready", &f.units_ready},
                     {"units_leased", &f.units_leased},
                     {"leases_granted", &f.leases_granted},
                     {"leases_expired", &f.leases_expired},
                     {"streams", &f.streams},
                     {"stream_leases", &f.stream_leases},
                     {"stream_windows", &f.stream_windows},
                     {"streams_finished", &f.streams_finished},
                     {"streams_failed", &f.streams_failed}});
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
    const auto tokens = protocol::headerTokens(header);
    try {
        parseFields(header, {{"lease", &info.lease},
                             {"deadline-ms", &info.deadline_ms},
                             {"job", &info.job}});
        for (const auto &v : splitCommas(
                 protocol::tokenValue(tokens, "cells").value_or("")))
            info.cells.push_back(std::size_t(batch::parseCount(v)));
        for (const auto &v : splitCommas(
                 protocol::tokenValue(tokens, "keys").value_or("")))
            info.keys.push_back(batch::CacheKey::fromHex(v));
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
    unsigned deadline_ms = 0; // leases are never zero-length
    try {
        parseFields(reply, {{"deadline-ms", &deadline_ms}});
    } catch (const batch::BatchError &) {
    }
    if (deadline_ms == 0)
        throw ServiceError("RENEW: malformed reply '" + reply + "'");
    return deadline_ms;
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
    try {
        parseFields(reply.body, {{"stored", &info.stored},
                                   {"discarded", &info.discarded}});
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
    std::uint64_t id = 0; // stream ids start at 1
    try {
        parseFields(reply, {{"stream", &id}});
    } catch (const batch::BatchError &) {
    }
    if (id == 0)
        throw ServiceError("STREAM-OPEN: malformed reply '" + reply + "'");
    return id;
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
    try {
        parseFields(reply, {{"received", &info.received},
                            {"records", &info.records},
                            {"windows_fed", &info.windows_fed}});
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
    std::uint64_t complete = 0;
    try {
        parseFields(reply, {{"records", &info.records},
                            {"windows_fed", &info.windows_fed},
                            {"windows_total", &info.windows_total},
                            {"est_cpi", &info.est_cpi},
                            {"ci_error", &info.ci_error},
                            {"mpki", &info.mpki},
                            {"complete", &complete}});
        info.complete = complete != 0;
        const auto mrc =
            protocol::tokenValue(protocol::headerTokens(reply), "mrc");
        for (const auto &point : mrc ? splitCommas(*mrc)
                                     : std::vector<std::string>{}) {
            const std::size_t colon = point.find(':');
            if (colon == std::string::npos)
                throw batch::BatchError("mrc point '" + point +
                                        "' has no ':'");
            info.mrc.emplace_back(batch::parseCount(point.substr(0, colon)),
                                  batch::parseReal(point.substr(colon + 1)));
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
    const auto tokens = protocol::headerTokens(header);
    std::uint64_t finish = 0;
    try {
        parseFields(header, {{"lease", &info.lease},
                             {"deadline-ms", &info.deadline_ms},
                             {"stream", &info.stream},
                             {"from", &info.from},
                             {"to", &info.to},
                             {"finish", &finish},
                             {"records", &info.records}});
    } catch (const batch::BatchError &e) {
        throw ServiceError("STREAM-LEASE: malformed reply header '" +
                           header + "': " + e.what());
    }
    info.finish = finish != 0;
    info.trace = protocol::tokenValue(tokens, "trace").value_or("");
    info.prefix = protocol::tokenValue(tokens, "prefix").value_or("");
    if (!protocol::tokenValue(tokens, "lease") ||
        !protocol::tokenValue(tokens, "stream") ||
        !protocol::tokenValue(tokens, "to") || info.trace.empty() ||
        info.prefix.empty() || info.to < info.from)
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
    FleetStats &f = info.fleet_stats;
    try {
        info.fleet = parseFields(
            reply, {{"last_run_executed", &info.last_run_executed},
                    {"last_run_cached", &info.last_run_cached},
                    {"total_executed", &info.total_executed},
                    {"total_cached", &info.total_cached},
                    {"jobs", &info.jobs_submitted},
                    {"completed", &info.jobs_completed},
                    {"job_failures", &info.job_failures},
                    {"cells_executed", &info.cells_executed},
                    {"cells_cached", &info.cells_cached},
                    {"cells_enqueued", &info.cells_enqueued},
                    {"cells_deduped", &info.cells_deduped},
                    {"queue_depth", &info.queue_depth},
                    {"running", &info.running},
                    {"spool_processed", &info.spool_processed},
                    {"checkpoint_prepares", &info.checkpoint_prepares},
                    {"cells_total", &f.cells_total},
                    {"units_ready", &f.units_ready},
                    {"units_leased", &f.units_leased},
                    {"leases_granted", &f.leases_granted},
                    {"leases_renewed", &f.leases_renewed},
                    {"leases_expired", &f.leases_expired},
                    {"results_stored", &f.results_stored},
                    {"results_discarded", &f.results_discarded},
                    {"quota_rejections", &f.quota_rejections},
                    {"streams", &f.streams},
                    {"stream_leases", &f.stream_leases},
                    {"stream_handoffs", &f.stream_handoffs},
                    {"stream_windows", &f.stream_windows},
                    {"streams_finished", &f.streams_finished},
                    {"streams_failed", &f.streams_failed}});
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
