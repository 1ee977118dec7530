#include "service/protocol.hh"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "batch/error.hh"
#include "batch/plan.hh"
#include "batch/result_cache.hh"
#include "workload/endian.hh"

namespace delorean::service::protocol
{

namespace le = workload::le;

namespace
{

/** Shared frame prefix: magic + one u32 code + u32 body length. */
constexpr std::size_t header_size = 8 + 4 + 4;

void
packHeader(std::uint8_t *p, std::uint32_t code, std::uint32_t length)
{
    std::memcpy(p, magic, 8);
    le::putU32(p + 8, code);
    le::putU32(p + 12, length);
}

/**
 * @return (code, body) of one frame; nullopt on clean EOF before the
 * first header byte.
 */
std::optional<std::pair<std::uint32_t, std::string>>
readFrame(int fd, const char *what)
{
    std::uint8_t header[header_size];
    if (!readExact(fd, header, sizeof(header)))
        return std::nullopt;
    if (std::memcmp(header, magic, 8) != 0)
        throw ServiceError(std::string(what) + ": bad frame magic");
    const std::uint32_t code = le::getU32(header + 8);
    const std::uint32_t length = le::getU32(header + 12);
    if (length > max_body)
        throw ServiceError(std::string(what) + ": body length " +
                           std::to_string(length) + " exceeds limit");
    std::string body(length, '\0');
    if (length > 0 && !readExact(fd, body.data(), length))
        throw ServiceError(std::string(what) + ": truncated body");
    return std::make_pair(code, std::move(body));
}

void
writeFrame(int fd, std::uint32_t code, const std::string &body)
{
    if (body.size() > max_body)
        throw ServiceError("frame body too large");
    std::uint8_t header[header_size];
    packHeader(header, code, std::uint32_t(body.size()));
    writeAll(fd, header, sizeof(header));
    if (!body.empty())
        writeAll(fd, body.data(), body.size());
}

} // namespace

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::Submit:
        return "SUBMIT";
      case Opcode::Status:
        return "STATUS";
      case Opcode::Result:
        return "RESULT";
      case Opcode::Stats:
        return "STATS";
      case Opcode::Shutdown:
        return "SHUTDOWN";
      case Opcode::Lease:
        return "LEASE";
      case Opcode::Renew:
        return "RENEW";
      case Opcode::Complete:
        return "COMPLETE";
      case Opcode::ResultPart:
        return "RESULT-PART";
      case Opcode::ResultEnd:
        return "RESULT-END";
      case Opcode::StreamOpen:
        return "STREAM-OPEN";
      case Opcode::StreamAppend:
        return "STREAM-APPEND";
      case Opcode::StreamClose:
        return "STREAM-CLOSE";
      case Opcode::StreamLease:
        return "STREAM-LEASE";
      case Opcode::StreamHandoff:
        return "STREAM-HANDOFF";
    }
    return "?";
}

void
writeAll(int fd, const void *data, std::size_t count)
{
    const char *p = static_cast<const char *>(data);
    while (count > 0) {
        const ssize_t n = ::write(fd, p, count);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw ServiceError(std::string("socket write: ") +
                               std::strerror(errno));
        }
        p += n;
        count -= std::size_t(n);
    }
}

bool
readExact(int fd, void *data, std::size_t count)
{
    char *p = static_cast<char *>(data);
    std::size_t got = 0;
    while (got < count) {
        const ssize_t n = ::read(fd, p + got, count - got);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw ServiceError(std::string("socket read: ") +
                               std::strerror(errno));
        }
        if (n == 0) {
            if (got == 0)
                return false; // clean EOF at a frame boundary
            throw ServiceError("unexpected EOF inside a frame");
        }
        got += std::size_t(n);
    }
    return true;
}

namespace
{

/**
 * Does the first line of a COMPLETE body carry the exact token
 * "more=1"? Anything else (including a malformed header) means no
 * continuation frames follow — the handler reports the malformation
 * as a request-level error on a healthy connection.
 */
bool
completeWantsMore(const std::string &body)
{
    const std::size_t eol = body.find('\n');
    const std::string line =
        eol == std::string::npos ? body : body.substr(0, eol);
    std::size_t pos = 0;
    while (pos < line.size()) {
        std::size_t end = line.find(' ', pos);
        if (end == std::string::npos)
            end = line.size();
        if (line.compare(pos, end - pos, "more=1") == 0)
            return true;
        pos = end + 1;
    }
    return false;
}

/**
 * Drain the RESULT-PART/RESULT-END continuation of a COMPLETE into
 * @p body. Any other opcode mid-stream, truncation, or a reassembled
 * total above max_stream is a protocol violation.
 */
void
readCompleteContinuation(int fd, std::string &body)
{
    for (;;) {
        auto frame = readFrame(fd, "request");
        if (!frame)
            throw ServiceError(
                "request: EOF inside a COMPLETE stream");
        auto [code, chunk] = std::move(*frame);
        if (Opcode(code) != Opcode::ResultPart &&
            Opcode(code) != Opcode::ResultEnd)
            throw ServiceError("request: opcode " +
                               std::to_string(code) +
                               " inside a COMPLETE stream");
        if (body.size() + chunk.size() > max_stream)
            throw ServiceError(
                "request: COMPLETE stream exceeds limit");
        body += chunk;
        if (Opcode(code) == Opcode::ResultEnd)
            return;
    }
}

} // namespace

void
writeRequest(int fd, const Request &request)
{
    writeFrame(fd, std::uint32_t(request.op), request.body);
}

std::optional<Request>
readRequest(int fd)
{
    auto frame = readFrame(fd, "request");
    if (!frame)
        return std::nullopt;
    auto [code, body] = std::move(*frame);
    switch (Opcode(code)) {
      case Opcode::Submit:
      case Opcode::Status:
      case Opcode::Result:
      case Opcode::Stats:
      case Opcode::Shutdown:
      case Opcode::Lease:
      case Opcode::Renew:
      case Opcode::Complete:
      case Opcode::StreamOpen:
      case Opcode::StreamAppend:
      case Opcode::StreamClose:
      case Opcode::StreamLease:
      case Opcode::StreamHandoff:
        break;
      case Opcode::ResultPart:
      case Opcode::ResultEnd:
        // Continuation frames are only meaningful inside a COMPLETE
        // stream (consumed below); a standalone one is a confused or
        // hostile peer.
        throw ServiceError(std::string("request: ") +
                           opcodeName(Opcode(code)) +
                           " outside a COMPLETE stream");
      default:
        throw ServiceError("request: unknown opcode " +
                           std::to_string(code));
    }
    if (Opcode(code) == Opcode::Complete && completeWantsMore(body))
        readCompleteContinuation(fd, body);
    Request request;
    request.op = Opcode(code);
    request.body = std::move(body);
    return request;
}

void
writeReply(int fd, const Reply &reply)
{
    if (!reply.ok) {
        // Error bodies are short diagnostics; splitting them across
        // frames would complicate every client for no real payload.
        writeFrame(fd, status_error, reply.body);
        return;
    }
    std::size_t offset = 0;
    while (reply.body.size() - offset > max_body) {
        writeFrame(fd, status_part,
                   reply.body.substr(offset, max_body));
        offset += max_body;
    }
    writeFrame(fd, status_ok,
               offset == 0 ? reply.body : reply.body.substr(offset));
}

Reply
readReply(int fd)
{
    std::string body;
    std::size_t frames = 0;
    for (;;) {
        auto frame = readFrame(fd, "reply");
        if (!frame) {
            // A clean EOF at a frame boundary is still a truncated
            // reply once partial frames have arrived: the status_ok
            // terminator never came, so the reassembled body is
            // incomplete and must not be surfaced as a short reply.
            if (frames > 0)
                throw ServiceError(
                    "reply: connection closed mid-reassembly after " +
                    std::to_string(frames) + " partial frame" +
                    (frames == 1 ? "" : "s"));
            throw ServiceError("connection closed before the reply");
        }
        ++frames;
        auto [code, chunk] = std::move(*frame);
        if (code != status_ok && code != status_error &&
            code != status_part)
            throw ServiceError("reply: unknown status " +
                               std::to_string(code));
        if (body.size() + chunk.size() > max_stream)
            throw ServiceError("reply: chunked body exceeds limit");
        if (body.empty())
            body = std::move(chunk);
        else
            body += chunk;
        if (code == status_part)
            continue;
        Reply reply;
        reply.ok = code == status_ok;
        reply.body = std::move(body);
        return reply;
    }
}

void
writeCompleteRequest(int fd, std::uint64_t lease, bool ok,
                     const std::string &payload)
{
    std::string header = "lease=" + std::to_string(lease) +
                         " status=" + (ok ? "ok" : "error");
    if (header.size() + sizeof(" more=0\n") - 1 + payload.size() <=
        max_body) {
        Request request;
        request.op = Opcode::Complete;
        request.body = header + " more=0\n" + payload;
        writeRequest(fd, request);
        return;
    }
    writeFrame(fd, std::uint32_t(Opcode::Complete),
               header + " more=1\n");
    std::size_t offset = 0;
    while (payload.size() - offset > max_body) {
        writeFrame(fd, std::uint32_t(Opcode::ResultPart),
                   payload.substr(offset, max_body));
        offset += max_body;
    }
    writeFrame(fd, std::uint32_t(Opcode::ResultEnd),
               payload.substr(offset));
}

Submission
parseSubmit(const std::string &body)
{
    if (body.size() < 4)
        throw ServiceError("SUBMIT: missing priority prefix");
    const std::uint32_t raw = le::getU32(
        reinterpret_cast<const std::uint8_t *>(body.data()));
    // Keep client priorities in a sane band above everything the
    // spool uses.
    return {int(std::min(raw, max_submit_priority)), body.substr(4)};
}

std::uint64_t
parseStreamId(std::string text, const char *what)
{
    if (!text.empty() && text.back() == '\n')
        text.pop_back();
    if (text.rfind("stream=", 0) != 0)
        throw ServiceError(std::string(what) +
                           ": expected stream=<id>, got '" + text + "'");
    try {
        return batch::parseCount(text.substr(sizeof("stream=") - 1));
    } catch (const batch::BatchError &e) {
        throw ServiceError(std::string(what) + ": " + e.what());
    }
}

Reply
resultReply(const batch::ResultCache &cache, const std::string &body)
{
    const batch::CacheKey key = batch::CacheKey::fromHex(body);
    auto bytes = cache.loadBytes(key);
    if (!bytes)
        return Reply::error("no cached result for key " + body);
    return Reply::success(std::move(*bytes));
}

} // namespace delorean::service::protocol
