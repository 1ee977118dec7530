#include "service/stream.hh"

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>

#include "batch/cache_key.hh"
#include "batch/error.hh"
#include "batch/plan.hh"
#include "batch/result_io.hh"
#include "checkpoint/livepoint.hh"
#include "workload/endian.hh"
#include "workload/trace_io.hh"

namespace delorean::service
{

namespace le = workload::le;
using workload::TraceFormat;

/**
 * Parse and vet the STREAM-OPEN directives. Everything a session
 * fatal_if()s on — a non-exact confidence, an invalid schedule or
 * hierarchy — must be rejected here with an exception: the directives
 * come from a peer, and fatal() takes the whole service down. The
 * directive parser already surfaces schedule/geometry/confidence-range
 * problems as BatchError; the stream-specific shape checks live here.
 */
core::DeloreanConfig
streamConfig(std::uint64_t id, const std::string &directives,
             unsigned host_threads)
{
    batch::ManifestDirectives d;
    try {
        d = batch::parseDirectivesText(
            directives, "stream-" + std::to_string(id));
    } catch (const batch::BatchError &e) {
        throw ServiceError(e.what());
    }
    if (!d.workloads.empty())
        throw ServiceError(
            "STREAM-OPEN: directives must not name a workload; the "
            "workload is the streamed trace itself");
    if (d.configs.size() != 1)
        throw ServiceError("STREAM-OPEN: a stream runs exactly one "
                           "config (got " +
                           std::to_string(d.configs.size()) + ")");
    if (d.schedules.size() != 1)
        throw ServiceError("STREAM-OPEN: a stream runs exactly one "
                           "schedule (got " +
                           std::to_string(d.schedules.size()) + ")");
    if (d.methods.size() > 1 ||
        (d.methods.size() == 1 && d.methods[0] != "delorean"))
        throw ServiceError(
            "STREAM-OPEN: only the delorean method can run "
            "incrementally over a stream");

    core::DeloreanConfig config = d.configs[0].config;
    config.schedule = d.schedules[0].schedule;
    if (config.confidence > 0.0)
        throw ServiceError(
            "STREAM-OPEN: confidence-driven early stopping replays "
            "shuffled windows and needs the whole trace up front; "
            "streams require exact mode (confidence=0)");
    config.host_threads = host_threads == 0 ? 1 : host_threads;
    return config;
}

std::string
formatMrcPoints(const std::vector<std::pair<std::uint64_t, double>> &mrc)
{
    std::string text;
    char buf[64];
    for (const auto &[bytes, ratio] : mrc) {
        std::snprintf(buf, sizeof(buf), "%s%llu:%.17g",
                      text.empty() ? "" : ",",
                      static_cast<unsigned long long>(bytes), ratio);
        text += buf;
    }
    return text;
}

namespace
{

std::string
streamErr(std::uint64_t id)
{
    return "stream " + std::to_string(id) + ": ";
}

} // namespace

TraceSpool::TraceSpool(std::uint64_t id, std::string path,
                       std::uint64_t min_records)
    : id_(id),
      path_(std::move(path)),
      min_records_(min_records),
      out_(path_, std::ios::binary | std::ios::trunc)
{
    if (!out_)
        throw ServiceError(streamErr(id_) +
                           "cannot create spool file '" + path_ + "'");
}

TraceSpool::~TraceSpool()
{
    out_.close();
    std::remove(path_.c_str());
}

void
TraceSpool::parseHeader()
{
    if (pending_.size() < TraceFormat::header_size)
        return;
    const auto *p =
        reinterpret_cast<const std::uint8_t *>(pending_.data());
    if (std::memcmp(p, TraceFormat::magic.data(), 8) != 0)
        throw ServiceError(streamErr(id_) +
                           "bad trace magic (want DLRNTRC1)");
    if (le::getU32(p + 8) != TraceFormat::version)
        throw ServiceError(streamErr(id_) +
                           "unsupported trace version " +
                           std::to_string(le::getU32(p + 8)));
    if (le::getU32(p + 12) != TraceFormat::record_size)
        throw ServiceError(streamErr(id_) + "unsupported record size " +
                           std::to_string(le::getU32(p + 12)));
    if (le::getU32(p + 24) != 0)
        throw ServiceError(streamErr(id_) +
                           "reserved header bytes set");
    const std::uint32_t name_len = le::getU32(p + 28);
    if (name_len > TraceFormat::max_name_len)
        throw ServiceError(streamErr(id_) + "trace name length " +
                           std::to_string(name_len) + " exceeds " +
                           std::to_string(TraceFormat::max_name_len));

    declared_ = le::getU64(p + 16);
    if (declared_ < min_records_)
        throw ServiceError(
            streamErr(id_) + "trace declares " +
            std::to_string(declared_) + " records; the schedule "
            "spans " + std::to_string(min_records_));
    if (declared_ >
            (protocol::max_stream - TraceFormat::header_size -
             name_len) / TraceFormat::record_size)
        throw ServiceError(streamErr(id_) +
                           "declared trace size exceeds the " +
                           std::to_string(protocol::max_stream) +
                           "-byte stream limit");

    header_bytes_ = TraceFormat::header_size + name_len;
    if (pending_.size() < header_bytes_)
        return;
    out_.write(pending_.data(), std::streamsize(header_bytes_));
    if (!out_)
        throw ServiceError(streamErr(id_) + "spool write failed");
    pending_.erase(0, header_bytes_);
    header_done_ = true;
}

void
TraceSpool::spoolRecords()
{
    const std::uint64_t remaining = declared_ - records_;
    if (pending_.size() > remaining * TraceFormat::record_size)
        throw ServiceError(
            streamErr(id_) + "overflow: bytes past the " +
            std::to_string(declared_) + " records the header declared");
    const std::uint64_t complete =
        pending_.size() / TraceFormat::record_size;
    if (complete == 0)
        return;
    const std::size_t n =
        std::size_t(complete * TraceFormat::record_size);
    out_.write(pending_.data(), std::streamsize(n));
    if (!out_)
        throw ServiceError(streamErr(id_) + "spool write failed");
    pending_.erase(0, n);
    records_ += complete;
}

void
TraceSpool::append(const std::string &bytes)
{
    received_ += bytes.size();
    if (received_ > protocol::max_stream)
        throw ServiceError(streamErr(id_) + "stream exceeds the " +
                           std::to_string(protocol::max_stream) +
                           "-byte limit");
    pending_ += bytes;
    if (!header_done_)
        parseHeader();
    if (header_done_)
        spoolRecords();
}

void
TraceSpool::flush()
{
    out_.flush();
    if (!out_)
        throw ServiceError(streamErr(id_) + "spool write failed");
}

void
TraceSpool::requireComplete() const
{
    if (!header_done_)
        throw ServiceError(streamErr(id_) +
                           "closed before a complete trace header");
    if (!pending_.empty())
        throw ServiceError(streamErr(id_) + "closed mid-record (" +
                           std::to_string(pending_.size()) +
                           " dangling bytes)");
    if (records_ != declared_)
        throw ServiceError(streamErr(id_) + "closed after " +
                           std::to_string(records_) + " of " +
                           std::to_string(declared_) +
                           " declared records");
}

/** The running estimate a STATUS poll reports. */
struct StreamHost::Estimate
{
    unsigned windows_fed = 0;
    double est_cpi = 0.0;
    double ci_error = 0.0;
    double mpki = 0.0;
    std::string mrc; //!< formatMrcPoints() token value
};

/** The window source: called after an append, for STATUS and at
 *  CLOSE, always under the stream's lock. */
class StreamHost::Windows
{
  public:
    virtual ~Windows() = default;

    /** Advance what the spooled records allow; @return windows fed. */
    virtual unsigned advance(Stream &s) = 0;

    virtual Estimate estimate() const = 0;

    /**
     * The result over every window of the byte-complete stream @p s.
     * May wait on s.settled (releasing @p lock); returns nothing if
     * the stream failed or died meanwhile. Throws ServiceError to
     * leave the stream open for a retried CLOSE.
     */
    virtual std::optional<sampling::MethodResult>
    finish(Stream &s, std::unique_lock<std::mutex> &lock) = 0;
};

/** One hosted stream. */
struct StreamHost::Stream
{
    Stream(std::uint64_t id_, std::string directives_,
           const core::DeloreanConfig &config_,
           std::unique_ptr<Windows> windows_, std::string spool_path)
        : id(id_), directives(std::move(directives_)), config(config_),
          windows(std::move(windows_)),
          spool(id, std::move(spool_path),
                config.schedule.totalInstructions())
    {}

    std::mutex mutex; //!< serializes everything below
    /** Signals a Leased stream's finish or failure to its CLOSE. */
    std::condition_variable settled;

    const std::uint64_t id;
    const std::string directives;
    const core::DeloreanConfig config;
    const std::unique_ptr<Windows> windows;
    TraceSpool spool;

    bool closing = false; //!< a CLOSE is in progress
    bool dead = false;    //!< discarded: requests see an unknown id
    std::string error;    //!< failed; reported at the next request
};

namespace
{

/** Windows whose records are all spooled (core/session.hh). */
unsigned
feedableWindows(const sampling::RegionSchedule &sched,
                const TraceSpool &spool)
{
    if (!spool.headerDone())
        return 0;
    return unsigned(std::min<std::uint64_t>(
        sched.num_regions, spool.records() / sched.spacing));
}

/** How long a Leased CLOSE waits for the fleet's finish handoff. */
constexpr unsigned leased_close_wait_ms = 120000;

} // namespace

/** The daemon's source: a session fed in-process. */
class StreamHost::LocalWindows final : public Windows
{
  public:
    explicit LocalWindows(const core::DeloreanConfig &config)
        : session_(config)
    {}

    unsigned
    advance(Stream &s) override
    {
        const unsigned feedable =
            feedableWindows(s.config.schedule, s.spool);
        const unsigned fed = session_.windowsFed();
        if (feedable > fed) {
            // Replay the spooled prefix in place: the limit reader
            // tolerates the growing file, so the spool stays
            // byte-identical to the streamed trace.
            s.spool.flush();
            workload::FileTrace trace(s.spool.path(), false,
                                      s.spool.records());
            session_.feedWindows(trace, feedable - fed);
        }
        return session_.windowsFed();
    }

    Estimate
    estimate() const override
    {
        const core::SessionEstimate est = session_.estimate();
        return {est.windows_fed, est.mean_cpi, est.ci_error, est.mpki,
                formatMrcPoints(est.mrc)};
    }

    std::optional<sampling::MethodResult>
    finish(Stream &s, std::unique_lock<std::mutex> &) override
    {
        advance(s);
        sampling::MethodResult result = session_.finish();
        if (!s.config.livepoint_file.empty()) {
            // The live-point key hashes the workload's *content*
            // identity, so warm state recorded against the spool
            // resumes against any byte-identical copy of the trace.
            try {
                checkpoint::writeLivePointFile(
                    s.config.livepoint_file,
                    checkpoint::sessionLivePoints(
                        session_, "file:" + s.spool.path()));
            } catch (const checkpoint::CheckpointError &e) {
                throw ServiceError(streamErr(s.id) + e.what());
            }
        }
        return result;
    }

  private:
    core::DeloreanSession session_;
};

/** The coordinator's source: windows advance on leasing workers. */
class StreamHost::LeasedWindows final : public Windows
{
  public:
    LeasedWindows(const core::DeloreanConfig &config, std::string spool,
                  const std::atomic<bool> &stopping)
        : spool_(std::move(spool)), stopping_(stopping)
    {
        // Workers key their prefixes to "stream:<id>", not to the
        // trace content, so nothing can stand in for the file.
        if (!config.livepoint_file.empty())
            throw ServiceError(
                "STREAM-OPEN: a fleet-hosted stream cannot write a "
                "livepoints= file; stream through a batch service "
                "('batch_service serve') to record live-points");
        // STREAM-LEASE carries the spool as a space-separated token.
        if (spool_.find_first_of(" \t\n\v\f\r") != std::string::npos)
            throw ServiceError(
                "STREAM-OPEN: the fleet spool path '" + spool_ +
                "' contains whitespace, which a STREAM-LEASE cannot "
                "carry; serve the coordinator from a cache directory "
                "without whitespace");
    }

    /** Reclaims the committed prefix and any orphaned worker prefix
     *  ("<spool>.lvp*"); ~TraceSpool removes the spool itself. */
    ~LeasedWindows() override
    {
        namespace fs = std::filesystem;
        std::error_code ec;
        const fs::path spool(spool_);
        const std::string stem = spool.filename().string() + ".lvp";
        for (const auto &entry :
             fs::directory_iterator(spool.parent_path(), ec))
            if (entry.path().filename().string().rfind(stem, 0) == 0)
                fs::remove(entry.path(), ec);
    }

    unsigned advance(Stream &) override { return committed; }

    Estimate
    estimate() const override
    {
        Estimate est = last;
        est.windows_fed = committed;
        return est;
    }

    std::optional<sampling::MethodResult>
    finish(Stream &s, std::unique_lock<std::mutex> &lock) override
    {
        // CLOSE made the finish lease grantable; wait for its handoff.
        const bool settled = s.settled.wait_for(
            lock, std::chrono::milliseconds(leased_close_wait_ms), [&] {
                return finished || !s.error.empty() || s.dead ||
                       stopping_.load();
            });
        if (finished)
            return result;
        if (!s.error.empty() || s.dead)
            return std::nullopt;
        if (settled)
            throw ServiceError("STREAM-CLOSE: shutting down");
        throw ServiceError("STREAM-CLOSE: timed out after " +
                           std::to_string(leased_close_wait_ms) +
                           " ms waiting for the fleet to finish stream " +
                           std::to_string(s.id) + "; retry");
    }

    unsigned committed = 0;   //!< windows in the committed prefix
    std::string prefix;       //!< "<spool>.lvp" once committed > 0
    bool leased = false;      //!< a window range is out on lease
    std::uint64_t lease = 0;
    bool finished = false;    //!< the finish handoff landed
    sampling::MethodResult result;
    Estimate last;            //!< published by the last handoff

  private:
    const std::string spool_;
    const std::atomic<bool> &stopping_;
};

void
StreamHost::log(const char *format, ...) const
{
    if (!options_.verbose)
        return;
    std::fprintf(stderr, "[%s] ", options_.tag);
    va_list args;
    va_start(args, format);
    std::vfprintf(stderr, format, args);
    va_end(args);
    std::fputc('\n', stderr);
}

void
StreamHost::stop()
{
    std::vector<std::thread> tailers;
    {
        std::lock_guard<std::mutex> lock(stop_mutex_);
        stopping_ = true;
        stop_cv_.notify_all();
        tailers.swap(tailers_);
    }
    {
        // Wake Leased CLOSEs; the stream lock orders the wake-up after
        // their predicate check.
        std::lock_guard<std::mutex> map(map_mutex_);
        for (const auto &[id, s] : streams_) {
            std::lock_guard<std::mutex> lock(s->mutex);
            s->settled.notify_all();
        }
    }
    for (auto &tailer : tailers)
        tailer.join();
}

StreamHost::Counters
StreamHost::counters() const
{
    return {opened_.load(), closed_.load(), windows_.load(),
            finished_.load(), failed_.load()};
}

std::shared_ptr<StreamHost::Stream>
StreamHost::find(std::uint64_t id) const
{
    std::lock_guard<std::mutex> lock(map_mutex_);
    const auto it = streams_.find(id);
    return it == streams_.end() ? nullptr : it->second;
}

std::pair<std::shared_ptr<StreamHost::Stream>,
          std::unique_lock<std::mutex>>
StreamHost::acquire(std::uint64_t id)
{
    auto s = find(id);
    if (!s)
        throw ServiceError("unknown stream " + std::to_string(id));
    std::unique_lock<std::mutex> lock(s->mutex);
    if (s->dead)
        throw ServiceError("unknown stream " + std::to_string(id));
    if (!s->error.empty()) {
        const std::string error = s->error;
        discard(*s, lock);
        throw ServiceError(streamErr(id) + error);
    }
    return {std::move(s), std::move(lock)};
}

void
StreamHost::discard(Stream &s, std::unique_lock<std::mutex> &lock)
{
    s.dead = true;
    s.settled.notify_all();
    lock.unlock();
    std::lock_guard<std::mutex> map(map_mutex_);
    streams_.erase(s.id);
    // The spool and artifacts go with the last reference.
}

protocol::Reply
StreamHost::open(const std::string &body)
{
    // An optional "tail=<path>" first line: the host follows the named
    // (growing) trace file itself instead of taking APPENDs.
    std::string directives = body;
    std::string tail;
    if (body.rfind("tail=", 0) == 0) {
        const std::size_t eol = body.find('\n');
        tail = body.substr(5, eol == std::string::npos ? std::string::npos
                                                       : eol - 5);
        directives =
            eol == std::string::npos ? "" : body.substr(eol + 1);
        if (tail.empty())
            throw ServiceError("STREAM-OPEN: tail= needs a file path");
    }

    std::error_code ec;
    std::filesystem::create_directories(options_.spool_dir, ec);
    if (ec)
        throw ServiceError("STREAM-OPEN: cannot create spool "
                           "directory '" + options_.spool_dir +
                           "': " + ec.message());

    const std::uint64_t id = ++next_id_;
    // Construct outside the map lock: directive parsing and spool
    // creation must not stall other streams. The window source may
    // refuse the stream before its spool file exists.
    const core::DeloreanConfig config =
        streamConfig(id, directives, options_.host_threads);
    std::string path =
        options_.spool_dir + "/" + std::to_string(id) + ".dlt";
    std::unique_ptr<Windows> windows;
    if (options_.source == WindowSource::Local)
        windows = std::make_unique<LocalWindows>(config);
    else
        windows = std::make_unique<LeasedWindows>(config, path, stopping_);
    auto s = std::make_shared<Stream>(id, directives, config,
                                      std::move(windows), std::move(path));
    {
        std::lock_guard<std::mutex> lock(map_mutex_);
        streams_.emplace(id, std::move(s));
    }
    ++opened_;
    if (!tail.empty()) {
        std::lock_guard<std::mutex> lock(stop_mutex_);
        tailers_.emplace_back([this, id, tail] { tailLoop(id, tail); });
    }
    log("stream %llu opened%s%s", (unsigned long long)id,
        tail.empty() ? "" : ", tailing ", tail.c_str());
    return protocol::Reply::success("stream=" + std::to_string(id) +
                                    "\n");
}

StreamHost::Ingested
StreamHost::ingest(std::uint64_t id, const std::string &bytes)
{
    auto [s, lock] = acquire(id);
    if (s->closing)
        throw ServiceError("stream " + std::to_string(id) +
                           " is closing");
    unsigned fed = 0;
    try {
        s->spool.append(bytes);
        fed = s->windows->advance(*s);
    } catch (const ServiceError &) {
        // Malformed header, overflow, spool I/O: the stream's state
        // is unrecoverable. Drop it so its spool is reclaimed.
        discard(*s, lock);
        throw;
    } catch (const workload::TraceError &e) {
        // Garbage record bytes surfaced from a window feed.
        discard(*s, lock);
        throw ServiceError(streamErr(id) + e.what());
    }
    std::ostringstream os;
    os << "received=" << s->spool.received()
       << " records=" << s->spool.records() << " windows_fed=" << fed
       << "\n";
    return {os.str(), s->spool.complete()};
}

protocol::Reply
StreamHost::append(const std::string &body)
{
    const std::size_t eol = body.find('\n');
    if (eol == std::string::npos)
        throw ServiceError(
            "STREAM-APPEND: missing stream=<id> header line");
    const std::uint64_t id =
        protocol::parseStreamId(body.substr(0, eol), "STREAM-APPEND");
    return protocol::Reply::success(ingest(id, body.substr(eol + 1)).reply);
}

protocol::Reply
StreamHost::status(const std::string &body)
{
    const std::uint64_t id = protocol::parseStreamId(body, "STATUS");
    const auto [s, lock] = acquire(id);
    const Estimate est = s->windows->estimate();
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "stream=%llu records=%llu windows_fed=%u "
                  "windows_total=%u est_cpi=%.17g ci_error=%.17g "
                  "mpki=%.17g complete=%u",
                  static_cast<unsigned long long>(id),
                  static_cast<unsigned long long>(s->spool.records()),
                  est.windows_fed, s->config.schedule.num_regions,
                  est.est_cpi, est.ci_error, est.mpki,
                  s->spool.complete() ? 1u : 0u);
    std::string line = buf;
    if (!est.mrc.empty())
        line += " mrc=" + est.mrc;
    return protocol::Reply::success(line + "\n");
}

protocol::Reply
StreamHost::close(const std::string &body)
{
    const std::uint64_t id = protocol::parseStreamId(body, "STREAM-CLOSE");
    auto [s, lock] = acquire(id);
    if (s->closing)
        throw ServiceError("stream " + std::to_string(id) +
                           " is closing");
    // Incomplete bytes are the client's error: the stream stays open.
    s->spool.requireComplete();
    s->spool.flush();
    s->closing = true;
    std::optional<sampling::MethodResult> result;
    try {
        result = s->windows->finish(*s, lock);
    } catch (const workload::TraceError &e) {
        s->error = e.what();
    } catch (...) {
        s->closing = false; // a retried CLOSE may still succeed
        throw;
    }
    if (!result) {
        // Failed by its worker, or discarded under the waiting CLOSE.
        const std::string error =
            s->dead ? "discarded during close" : s->error;
        if (!s->dead)
            discard(*s, lock);
        throw ServiceError(streamErr(id) + error);
    }

    // The spool is byte-identical to the streamed trace, so this is
    // the key plan expansion computes for the original file.
    batch::CacheKey key;
    try {
        key = batch::cellKey("file:" + s->spool.path(), "delorean",
                             s->config);
    } catch (const batch::BatchError &e) {
        s->closing = false;
        throw ServiceError(streamErr(id) + e.what());
    }
    cache_.store(key, *result);
    ++closed_;
    // A result covers every window of the schedule.
    const unsigned windows = s->config.schedule.num_regions;
    discard(*s, lock);
    log("stream %llu closed -> key %s (%u windows)",
        (unsigned long long)id, key.hex().c_str(), windows);
    return protocol::Reply::success("key=" + key.hex() + " windows=" +
                                    std::to_string(windows) + "\n");
}

bool
StreamHost::pause()
{
    std::unique_lock<std::mutex> lock(stop_mutex_);
    return !stop_cv_.wait_for(
        lock, std::chrono::milliseconds(options_.tail_poll_ms),
        [&] { return stopping_.load(); });
}

void
StreamHost::tailLoop(std::uint64_t id, const std::string &path)
{
    const auto drop = [&] {
        try {
            auto [s, lock] = acquire(id);
            discard(*s, lock);
        } catch (const ServiceError &) {
        }
    };
    std::uint64_t offset = 0;
    std::optional<std::uint64_t> previous; // size at the previous poll
    do {
        std::error_code ec;
        const std::uint64_t size = std::filesystem::file_size(path, ec);
        if (ec) {
            // Not created yet is fine: tailing may start before the
            // recorder's first write. Once seen, a vanished recording
            // can never complete, so reclaim the stream.
            if (previous)
                return drop();
            continue;
        }
        // Stability gate: only bytes that already existed at the
        // previous poll are ingested, so a recorder's half-flushed
        // tail is never fed. A file that stopped growing drains
        // completely on the next poll.
        const std::uint64_t target =
            previous ? std::min(size, *previous) : 0;
        previous = size;
        if (target <= offset) {
            if (!find(id))
                return; // closed or discarded under us
            continue;
        }
        std::ifstream in(path, std::ios::binary);
        std::string bytes(std::size_t(target - offset), '\0');
        in.seekg(std::streamoff(offset));
        in.read(bytes.data(), std::streamsize(bytes.size()));
        if (!in || std::uint64_t(in.gcount()) != bytes.size())
            return drop();
        try {
            // Every declared byte in: the client observes complete=1
            // via STATUS and issues the CLOSE.
            if (ingest(id, bytes).complete)
                return;
        } catch (const ServiceError &e) {
            // Discarded (poisoned bytes), failed, or closed.
            log("tail of %s: %s", path.c_str(), e.what());
            return;
        }
        offset = target;
    } while (pause());
}

std::optional<StreamHost::Grant>
StreamHost::grant(std::uint64_t lease, const std::string &worker)
{
    std::lock_guard<std::mutex> map(map_mutex_);
    for (const auto &[id, s] : streams_) {
        // A stream busy spooling an append is skipped, not waited
        // for: the caller holds its owner's lock.
        std::unique_lock<std::mutex> lock(s->mutex, std::try_to_lock);
        if (!lock || s->dead || !s->error.empty())
            continue;
        auto &w = dynamic_cast<LeasedWindows &>(*s->windows);
        if (w.leased || w.finished)
            continue;
        const auto &sched = s->config.schedule;
        const unsigned feedable = feedableWindows(sched, s->spool);
        const bool finish = s->closing && s->spool.complete();
        if (!finish && feedable <= w.committed)
            continue;
        s->spool.flush();
        w.leased = true;
        w.lease = lease;
        const unsigned to = finish ? sched.num_regions : feedable;
        log("stream lease %llu -> %s (stream %llu, windows [%u, %u)%s)",
            (unsigned long long)lease,
            worker.empty() ? "worker" : worker.c_str(),
            (unsigned long long)id, w.committed, to,
            finish ? ", finish" : "");
        std::ostringstream os;
        os << "stream=" << id << " from=" << w.committed << " to=" << to
           << " finish=" << (finish ? 1 : 0)
           << " records=" << s->spool.records()
           << " trace=" << s->spool.path()
           << " prefix=" << (w.committed > 0 ? w.prefix : "-") << "\n"
           << s->directives;
        return Grant{id, finish, os.str()};
    }
    return std::nullopt;
}

void
StreamHost::release(std::uint64_t stream, std::uint64_t lease)
{
    const auto s = find(stream);
    if (!s)
        return;
    std::lock_guard<std::mutex> lock(s->mutex);
    auto &w = dynamic_cast<LeasedWindows &>(*s->windows);
    if (w.leased && w.lease == lease)
        w.leased = false;
}

protocol::Reply
StreamHost::handoff(std::uint64_t stream, std::uint64_t lease,
                    bool expired, bool finish, const std::string &body)
{
    const auto tokens = protocol::headerTokens(body);
    const std::string prefix =
        protocol::tokenValue(tokens, "prefix").value_or("-");
    const std::size_t eol = body.find('\n');
    const std::string payload =
        eol == std::string::npos ? "" : body.substr(eol + 1);
    // A handoff the host does not commit must not leak the worker's
    // prefix file.
    struct PrefixGuard
    {
        std::string path;
        ~PrefixGuard()
        {
            if (path != "-")
                std::remove(path.c_str());
        }
    } uncommitted{prefix};
    const auto ack = [](unsigned committed, unsigned stored,
                        unsigned discarded) {
        return protocol::Reply::success(
            "committed=" + std::to_string(committed) +
            " stored=" + std::to_string(stored) +
            " discarded=" + std::to_string(discarded) + "\n");
    };
    const auto s = find(stream);
    if (!s)
        return ack(0, 0, 1);
    std::lock_guard<std::mutex> lock(s->mutex);
    auto &w = dynamic_cast<LeasedWindows &>(*s->windows);
    if (w.leased && w.lease == lease)
        w.leased = false;
    const bool settled = s->dead || w.finished || !s->error.empty();

    if (protocol::tokenValue(tokens, "status") != "ok") {
        // Only an *active* lease may fail the stream — a zombie's
        // error must not poison a re-lease that might still succeed.
        if (expired || settled)
            return ack(w.committed, 0, 1);
        s->error = payload.empty() ? "worker reported an execution error"
                                   : payload;
        ++failed_;
        s->settled.notify_all();
        return ack(w.committed, 0, 0);
    }
    if (settled)
        return ack(w.committed, 0, 1);

    // Parsed only now, so a bad number fails this handoff alone: the
    // lease is spent and the stream is leasable again.
    unsigned windows = 0;
    Estimate est;
    try {
        if (const auto text = protocol::tokenValue(tokens, "windows"))
            windows = batch::parseU32(*text);
        if (const auto text = protocol::tokenValue(tokens, "est_cpi"))
            est.est_cpi = batch::parseReal(*text);
        if (const auto text = protocol::tokenValue(tokens, "ci_error"))
            est.ci_error = batch::parseReal(*text);
        if (const auto text = protocol::tokenValue(tokens, "mpki"))
            est.mpki = batch::parseReal(*text);
    } catch (const batch::BatchError &e) {
        throw ServiceError(
            std::string("STREAM-HANDOFF: malformed header: ") + e.what());
    }
    est.mrc = protocol::tokenValue(tokens, "mrc").value_or("");

    const unsigned regions = s->config.schedule.num_regions;
    if (finish) {
        if (windows != regions)
            throw ServiceError("STREAM-HANDOFF: finish handoff covers " +
                               std::to_string(windows) + " of " +
                               std::to_string(regions) + " windows");
        try {
            std::istringstream is(payload, std::ios::binary);
            w.result = batch::readMethodResult(is);
        } catch (const batch::BatchError &e) {
            // The stream stays leasable; another worker can finish.
            throw ServiceError(
                std::string("STREAM-HANDOFF: malformed result payload: ") +
                e.what());
        }
        w.finished = true;
        ++finished_;
        s->settled.notify_all();
        log("stream %llu finished by lease %llu",
            (unsigned long long)stream, (unsigned long long)lease);
    } else {
        // First write per window count wins. Accept any strict
        // extension of the committed prefix — even from an expired
        // lease: a window's warm state is a pure function of the trace
        // bytes and the config, so duplicates are bit-identical.
        if (windows <= w.committed)
            return ack(w.committed, 0, 1);
        if (prefix == "-")
            throw ServiceError(
                "STREAM-HANDOFF: prefix handoff without a prefix file");
        try {
            const auto warm = checkpoint::loadPrefixForRun(
                "stream:" + std::to_string(stream), s->config, prefix);
            if (warm.size() != windows)
                throw checkpoint::CheckpointError(
                    "prefix file covers " + std::to_string(warm.size()) +
                    " windows, header claims " + std::to_string(windows));
        } catch (const checkpoint::CheckpointError &e) {
            throw ServiceError(
                std::string("STREAM-HANDOFF: invalid prefix: ") + e.what());
        }
        const std::string dest = s->spool.path() + ".lvp";
        if (std::rename(prefix.c_str(), dest.c_str()) != 0)
            throw ServiceError(
                "STREAM-HANDOFF: cannot install prefix file '" + prefix +
                "'");
        uncommitted.path = "-";
        w.prefix = dest;
        log("stream %llu prefix -> %u windows (lease %llu%s)",
            (unsigned long long)stream, windows, (unsigned long long)lease,
            expired ? ", zombie won" : "");
    }
    windows_ += windows - w.committed;
    w.committed = windows;
    w.last = est;
    return ack(w.committed, 1, 0);
}

} // namespace delorean::service
